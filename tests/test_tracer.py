"""The benchmark's tracer finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

from ifstrobe import GenericModel

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    for module, attr, _, _ in _tracer_module().TRACED:
        # import_module returns the module even where the package re-exports
        # a function under the module's name (ifstrobe.strobe)
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_a_traced_generic_flow_counts_one_integrator_run():
    tracer = _tracer_module().Tracer()
    model = GenericModel(f=lambda x: 0.2 - 0.5 * x, f_deriv=lambda x: -0.5)
    model_module = importlib.import_module("ifstrobe.model")
    with tracer.installed():  # rebinds the names inside the ifstrobe modules only
        model_module.flow(model, 0.0, 1.0, 0.5)
    assert tracer.calls["model.flow"] == tracer.calls["model.solve_ivp"] == 1

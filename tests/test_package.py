"""The package's public names are its modules' ``__all__``, each written once."""

import sys
import types

import ifstrobe
from ifstrobe import bifurcation, model, sweep

STROBE = sys.modules["ifstrobe.strobe"]  # the attribute ifstrobe.strobe is the function
MODULES = (model, STROBE, bifurcation, sweep)

# the names the package exported before it republished the modules' lists
EARLIER_NAMES = {
    "DomainError", "Forcing", "GenericModel", "HypothesisReport", "IntegrationError",
    "LinearModel", "Region", "RegionClass", "averaged_time_to_threshold", "classify_region",
    "critical_dose", "flow", "time_to_threshold", "validate_hypotheses",
    "BoundaryInfo", "OrbitOptions", "OrbitSummary", "SpikeRunawayError", "StrobeMap",
    "StrobeResult", "attractor", "boundary_sigma", "contraction_margin", "fixed_point",
    "rotation_number", "strobe",
    "BifPoint", "BifurcationNotFound", "RateLimits", "Side", "bif_A", "bif_T", "rate_limits",
    "AddingCheck", "AddingReport", "AmplitudeCorrection", "PlaneScan", "StaircaseSample",
    "WidthCorrection", "Window", "scan_plane", "sweep_T", "verify_adding",
}
# the sampled margin, replaced by the cycle multiplier OrbitSummary.log_multiplier
REMOVED_NAMES = {"contraction_margin"}


def test_all_is_the_concatenation_of_the_modules_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert ifstrobe.__all__ == names
    assert len(set(names)) == len(names) == 44


def test_all_keeps_every_earlier_name_and_adds_model_and_dose_mode():
    assert len(EARLIER_NAMES) == 43
    assert set(ifstrobe.__all__) - EARLIER_NAMES == {"Model", "DoseMode"}
    assert EARLIER_NAMES - set(ifstrobe.__all__) == REMOVED_NAMES
    assert not any(hasattr(m, name) for m in (ifstrobe, *MODULES) for name in REMOVED_NAMES)


def test_each_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ifstrobe, name) is getattr(module, name), name
    assert isinstance(ifstrobe.strobe, types.FunctionType)
    assert ifstrobe.strobe is STROBE.strobe
    namespace: dict = {}
    exec("from ifstrobe import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ifstrobe.__all__)

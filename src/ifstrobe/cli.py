"""Command-line front end: analyses as subcommands, results as CSV.

Subcommands
-----------
limits        firing-rate limits and the 1-spike window for one (A, d)
classify      spiking-region label for one (A, d)
sweep         firing-rate staircase over T (--mode width|amplitude)
scan          attractor period / firing-number over a (d, 1/A) grid
bif           one border-collision solve (--solve A|T, --side R|L|zero)
adding-check  period-adding/Farey report for a previously swept CSV

Every parameter is declared once, in ``PARAMS``: its type (or choices), its
help text and its domain rule, which for ``d``, ``T``, ``theta``, ``delta``,
``Q``, ``cap`` and ``tol_time`` is the library's own.  The parser, the
config reader and the validation all derive from that table.  A handler
passes the library only the values the user gave, so every default lives
in the library's signatures alone.  A parameter ``name`` is the flag
``--name`` (underscores written as dashes) and the key ``name`` of a flat
``key=value`` config file (``--config``, '#' comments); explicit command-line
flags override file values.  A subcommand accepts only the flags it uses,
global ones included, and ignores config keys it does not use.  Exact
rationals are serialized as integer numerator/denominator column pairs so
that re-reading a CSV reproduces them bit-exactly; reals are written with 12
significant digits.  Exit codes: 0 success, 2 configuration error, 3 numeric
failure.  Exit 2 comes only from the validation layer: the config file and
the ``PARAMS`` checks (:class:`ConfigError`) and the library's checks of the
parameters it is given (:class:`~ifstrobe.model.DomainError`).  Any other
exception raised by the numerics is a bug and propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .bifurcation import BifurcationNotFound, Side, _check_time_tol, bif_A, bif_T, rate_limits
from .model import (
    DomainError,
    IntegrationError,
    LinearModel,
    _check_forcing,
    _check_threshold,
    classify_region,
    validate_hypotheses,
)
from .strobe import OrbitOptions, SpikeRunawayError
from .sweep import (
    AmplitudeCorrection,
    StaircaseSample,
    WidthCorrection,
    _check_amplitude_mode,
    _check_period_cap,
    _check_workers,
    _linspace,
    scan_plane,
    sweep_T,
    verify_adding,
)

__all__ = ["main", "run", "parse_config", "ConfigError", "read_staircase_csv"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SWEEP_COLUMNS = (
    "T",
    "eta_num",
    "eta_den",
    "rho_num",
    "rho_den",
    "rate",
    "word",
    "period",
    "converged",
    "contraction_ok",
)

SCAN_COLUMNS = ("d", "invA", "period", "eta", "capped", "failed")


class ConfigError(ValueError):
    """Invalid configuration file or parameter combination."""


class Param(NamedTuple):
    """One parameter: the flag ``--name`` and the config key ``name``.

    ``check`` is either the library's rule, a function raising DomainError,
    or a rule of the CLI's own: a domain test and the rule it states.
    """

    kind: type | tuple[str, ...]  # float, int, str, bool (a bare flag) or the choices
    help: str
    check: Callable[[Any], None] | tuple[Callable[[Any], bool], str] | None = None


_AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")
_SIDES = {side.value.lower(): side for side in Side}

PARAMS: dict[str, Param] = {
    "workers": Param(
        int,
        "most worker processes for a grid; it runs in process until the nodes left pay for a pool",
        _check_workers,
    ),
    "tol_state": Param(float, "attractor state-recurrence tolerance (> 0)"),
    "transient": Param(int, "attractor maps before the last cycle search (>= 0)"),
    "max_period": Param(
        int, "longest attractor period (>= 1); at most transient + 2*max_period maps"
    ),
    "out": Param(str, "output CSV path"),
    "a": Param(float, "linear decay rate (a < 0)"),
    "b": Param(float, "linear bias (b > 0)"),
    "theta": Param(float, "threshold (> 0)", _check_threshold),
    "A": Param(float, "pulse amplitude"),
    "d": Param(float, "duty cycle", lambda v: _check_forcing(d=v)),
    "T": Param(float, "forcing period", lambda v: _check_forcing(T=v)),
    "mode": Param(("width", "amplitude"), "dose conservation: fixed (A, d) or fixed pulse duration"),
    "delta": Param(
        float, "pulse duration (amplitude mode)", lambda v: _check_amplitude_mode(delta=v)
    ),
    "Q": Param(float, "dose (amplitude mode)", lambda v: _check_amplitude_mode(Q=v)),
    "tmin": Param(float, "smallest period of the sweep"),
    "tmax": Param(float, "largest period of the sweep"),
    "n": Param(int, "grid resolution"),
    "refine": Param(bool, "bisect between samples of different firing number"),
    "dmin": Param(float, "smallest duty cycle of the scan"),
    "dmax": Param(float, "largest duty cycle of the scan"),
    "dn": Param(int, "duty-cycle nodes of the scan", _AT_LEAST_ONE),
    "iamin": Param(float, "smallest 1/A of the scan"),
    "iamax": Param(float, "largest 1/A of the scan"),
    "ian": Param(int, "1/A nodes of the scan", _AT_LEAST_ONE),
    "cap": Param(int, "period cap of the scan", _check_period_cap),
    "solve": Param(("A", "T"), "variable of the collision solve"),
    "side": Param(str, "R, L or zero", (lambda v: v.lower() in _SIDES, "must be R, L or zero")),
    "spikes": Param(int, "spike count n"),
    "tol_time": Param(float, "root tolerance of the collision solve", _check_time_tol),
    "input": Param(str, "CSV produced by the sweep subcommand"),
}
_SHORT = {"out": "-o", "input": "-i"}
GLOBAL = ("workers", "tol_state", "transient", "max_period", "out")
MODEL = ("a", "b", "theta")


def _convert(kind: type | tuple[str, ...], text: str) -> object:
    if kind is bool:
        if text.lower() not in {"true", "false", "0", "1"}:
            raise ValueError(text)
        return text.lower() in {"true", "1"}
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(text)
        return text
    return kind(text)


def parse_config(path: str | Path) -> argparse.Namespace:
    """Read a flat key=value config file ('#' starts a comment).

    Keys are the names in :data:`PARAMS`; the result has one attribute per
    key, None when unset.  Unknown keys, malformed values and out-of-domain
    parameters raise :class:`ConfigError` naming the file (and line).
    """
    cfg = argparse.Namespace(**dict.fromkeys(PARAMS))
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in PARAMS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _convert(PARAMS[key].kind, value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed value for {key}: {value!r}") from exc
    _validate(cfg, f"{path}: ")
    return cfg


def _validate(ns: argparse.Namespace, prefix: str = "") -> None:
    """Check every set parameter against its domain, then the orbit options and the model."""
    try:
        for name, param in PARAMS.items():
            value = getattr(ns, name, None)
            if value is None or param.check is None:
                continue
            if isinstance(param.check, tuple):
                test, rule = param.check
                if not test(value):
                    raise ConfigError(f"{name} {rule}, got {value!r}")
            else:
                param.check(value)
        _orbit_opts(ns)
        if all(getattr(ns, name, None) is not None for name in MODEL):
            report = validate_hypotheses(LinearModel(a=ns.a, b=ns.b, theta=ns.theta))
            if not report.passed:
                raise ConfigError(f"model hypothesis violated: {report.failures[0].detail}")
    except (ConfigError, DomainError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _model_from(args: argparse.Namespace) -> LinearModel:
    _require(args, *MODEL)
    return LinearModel(a=args.a, b=args.b, theta=args.theta)


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")


#: The ``PARAMS`` name of each ``OrbitOptions`` field the CLI sets.
_ORBIT_PARAMS = {"transient": "transient", "max_period": "max_period", "state_tol": "tol_state"}


def _given(args: argparse.Namespace, keywords: dict[str, str]) -> dict[str, Any]:
    """The value of each library keyword in ``keywords`` whose ``PARAMS`` name the user gave.

    ``keywords`` maps a keyword to its ``PARAMS`` name.  An unset parameter is
    left out, so the library's default applies.
    """
    values = {keyword: getattr(args, name, None) for keyword, name in keywords.items()}
    return {keyword: value for keyword, value in values.items() if value is not None}


def _orbit_opts(args: argparse.Namespace) -> OrbitOptions:
    try:
        return OrbitOptions(**_given(args, _ORBIT_PARAMS))
    except ValueError as exc:  # OrbitOptions names the field first
        field, rule = str(exc).split(" ", 1)
        raise ConfigError(f"{_ORBIT_PARAMS[field]} {rule}") from exc


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sweep_rows(samples: list[StaircaseSample]) -> list[tuple]:
    return [
        (
            _fmt(s.T),
            s.eta.numerator,
            s.eta.denominator,
            s.rho.numerator,
            s.rho.denominator,
            _fmt(s.rate),
            s.word,
            s.period_p,
            int(s.converged),
            int(s.contraction_ok),
        )
        for s in samples
    ]


def read_staircase_csv(path: str | Path) -> list[StaircaseSample]:
    """Reconstruct sweep samples (rationals exactly) from an emitted CSV."""
    samples = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            samples.append(
                StaircaseSample(
                    T=float(row["T"]),
                    eta=Fraction(int(row["eta_num"]), int(row["eta_den"])),
                    rho=Fraction(int(row["rho_num"]), int(row["rho_den"])),
                    rate=float(row["rate"]),
                    word=row["word"],
                    period_p=int(row["period"]),
                    converged=bool(int(row["converged"])),
                    contraction_ok=bool(int(row["contraction_ok"])),
                )
            )
    return samples


def _cmd_limits(args: argparse.Namespace) -> int:
    model = _model_from(args)
    _require(args, "A", "d")
    lim = rate_limits(model, args.A, args.d)
    t0 = "none" if lim.T0 is None else _fmt(lim.T0)
    min_at = "T->0" if lim.r_min_is_infimum else _fmt(lim.r_min_at) if lim.r_min_at else "0<T<T0"
    print(
        f"r_infinity={_fmt(lim.r_infinity)} r_zero={_fmt(lim.r_zero)} T0={t0} "
        f"T1R={_fmt(lim.T1R)} T1L={_fmt(lim.T1L)} "
        f"r_max={_fmt(lim.r_max)}@T={_fmt(lim.r_max_at)} r_min={_fmt(lim.r_min)}@{min_at}"
    )
    if args.out:
        _write_csv(
            args.out,
            ("r_infinity", "r_zero", "T0", "T1R", "T1L", "r_max", "r_max_at", "r_min"),
            [
                (
                    _fmt(lim.r_infinity),
                    _fmt(lim.r_zero),
                    t0,
                    _fmt(lim.T1R),
                    _fmt(lim.T1L),
                    _fmt(lim.r_max),
                    _fmt(lim.r_max_at),
                    _fmt(lim.r_min),
                )
            ],
        )
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    model = _model_from(args)
    _require(args, "A", "d")
    region = classify_region(model, args.A, args.d)
    flags = []
    if region.on_amplitude_boundary:
        flags.append("on-amplitude-boundary")
    if region.on_dose_boundary:
        flags.append("on-dose-boundary")
    print(region.kind + (f" ({', '.join(flags)})" if flags else ""))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = _model_from(args)
    _require(args, "mode", "tmin", "tmax", "n")
    if args.mode == "width":
        _require(args, "A", "d")
        mode = WidthCorrection(A=args.A, d=args.d)
    else:
        _require(args, "delta", "Q")
        mode = AmplitudeCorrection(delta=args.delta, Q=args.Q)
    samples = sweep_T(
        model,
        mode,
        (args.tmin, args.tmax),
        args.n,
        opts=_orbit_opts(args),
        **_given(args, {"refine": "refine", "workers": "workers"}),
    )
    if args.out:
        _write_csv(args.out, SWEEP_COLUMNS, _sweep_rows(samples))
    spiking = sum(1 for s in samples if s.eta > 0)
    print(
        f"sweep: {len(samples)} samples on T in [{_fmt(samples[0].T)}, {_fmt(samples[-1].T)}], "
        f"{spiking} spiking, max rate {_fmt(max(s.rate for s in samples))}"
        + (f", wrote {args.out}" if args.out else "")
    )
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    model = _model_from(args)
    _require(args, "T", "dmin", "dmax", "dn", "iamin", "iamax", "ian")
    d_grid = _linspace(args.dmin, args.dmax, args.dn)
    a_grid = _linspace(args.iamin, args.iamax, args.ian)
    scan = scan_plane(
        model,
        args.T,
        d_grid,
        a_grid,
        opts=_orbit_opts(args),
        **_given(args, {"period_cap": "cap", "workers": "workers"}),
    )
    cells = itertools.product(scan.d_values, scan.invA_values)  # the nodes' row-major order
    rows = [
        (_fmt(d), _fmt(inva), period, "nan" if eta is None else _fmt(eta), int(capped), int(failed))
        for (d, inva), (period, eta, capped, failed) in zip(cells, scan.nodes)
    ]
    if args.out:
        _write_csv(args.out, SCAN_COLUMNS, rows)
    print(
        f"scan: {len(rows)} nodes at T={_fmt(args.T)}, "
        f"{sum(row[4] for row in rows)} capped, {sum(row[5] for row in rows)} failed"
        + (f", wrote {args.out}" if args.out else "")
    )
    return EXIT_OK


def _cmd_bif(args: argparse.Namespace) -> int:
    model = _model_from(args)
    _require(args, "solve", "side", "spikes", "d")
    side = _SIDES[args.side.lower()]
    tol = _given(args, {"time_tol": "tol_time"})
    if args.solve == "A":
        _require(args, "T")
        point = bif_A(model, args.spikes, side, args.d, args.T, **tol)
    else:
        _require(args, "A")
        point = bif_T(model, args.spikes, side, args.A, args.d, **tol)
    print(
        f"n={point.n} side={point.side.value} d={_fmt(point.d)} T={_fmt(point.T)} "
        f"A={_fmt(point.A)} residual={point.residual:.3e}"
        + (" (at amplitude resolution limit)" if point.at_resolution else "")
    )
    if args.out:
        _write_csv(
            args.out,
            ("n", "side", "d", "T", "A", "residual", "xbar"),
            [
                (
                    point.n,
                    point.side.value,
                    _fmt(point.d),
                    _fmt(point.T),
                    _fmt(point.A),
                    f"{point.residual:.6e}",
                    _fmt(point.xbar),
                )
            ],
        )
    return EXIT_OK


def _cmd_adding_check(args: argparse.Namespace) -> int:
    _require(args, "input")
    try:
        samples = read_staircase_csv(args.input)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{args.input}: not a sweep CSV ({exc!r})") from exc
    report = verify_adding(samples)
    print(
        f"adding-check: {len(report.windows)} windows, {len(report.checks)} mediant checks, "
        f"{len(report.violations)} violations, {len(report.unresolved)} unresolved"
    )
    for check in report.violations:
        print(
            f"  violation between eta={check.left.eta} and eta={check.right.eta} "
            f"on T in ({_fmt(check.left.t_hi)}, {_fmt(check.right.t_lo)}): {check.detail}"
        )
    return EXIT_OK


COMMANDS = {
    "limits": (_cmd_limits, "firing-rate limits for one (A, d)", (*MODEL, "A", "d", "out")),
    "classify": (_cmd_classify, "spiking-region label for one (A, d)", (*MODEL, "A", "d")),
    "sweep": (
        _cmd_sweep,
        "firing-rate staircase over T",
        (*GLOBAL, *MODEL, "mode", "A", "d", "delta", "Q", "tmin", "tmax", "n", "refine"),
    ),
    "scan": (
        _cmd_scan,
        "period/firing-number over a (d, 1/A) grid",
        (  # no max_period: scan_plane derives it from cap
            "workers",
            "tol_state",
            "transient",
            "out",
            *MODEL,
            "T",
            "dmin",
            "dmax",
            "dn",
            "iamin",
            "iamax",
            "ian",
            "cap",
        ),
    ),
    "bif": (
        _cmd_bif,
        "one border-collision solve",
        (*MODEL, "solve", "side", "spikes", "A", "d", "T", "tol_time", "out"),
    ),
    "adding-check": (_cmd_adding_check, "period-adding report for a swept CSV", ("input",)),
}


def _add_params(parser: argparse.ArgumentParser, names: tuple[str, ...], default: object) -> None:
    for name in names:
        kind, help_text, _ = PARAMS[name]
        flags = [_SHORT[name]] if name in _SHORT else []
        flags.append("--" + name.replace("_", "-"))
        if kind is bool:
            how: dict[str, object] = {"action": "store_const", "const": True}
        elif isinstance(kind, tuple):
            how = {"choices": kind}
        else:
            how = {"type": kind, "metavar": name}  # the default upper-cases, merging --a and --A
        parser.add_argument(*flags, dest=name, default=default, help=help_text, **how)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifstrobe",
        description="Analyses of periodically pulsed integrate-and-fire models",
    )
    parser.add_argument("--config", help="key=value config file")
    _add_params(parser, GLOBAL, None)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        # a global flag is accepted before or after the subcommand; the
        # copies after it use SUPPRESS so they only override when given
        p.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file")
        _add_params(p, tuple(n for n in names if n in GLOBAL), argparse.SUPPRESS)
        _add_params(p, tuple(n for n in names if n not in GLOBAL), None)
        p.set_defaults(handler=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute one subcommand, return the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    reads = COMMANDS[args.command][2]
    unread = [n for n in GLOBAL if getattr(args, n) is not None and n not in reads]
    if unread:
        flags = ", ".join("--" + n.replace("_", "-") for n in unread)
        parser.error(f"{args.command} does not use {flags}")
    try:
        if args.config:
            for name, value in vars(parse_config(args.config)).items():
                if hasattr(args, name) and getattr(args, name) is None:
                    setattr(args, name, value)
        _validate(args)
        return args.handler(args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BifurcationNotFound, IntegrationError, SpikeRunawayError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


main = run

if __name__ == "__main__":
    raise SystemExit(main())

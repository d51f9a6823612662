import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ifstrobe import LinearModel, scan_plane
from ifstrobe.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    _build_parser,
    main,
    parse_config,
    read_staircase_csv,
)
from ifstrobe.sweep import _linspace

MODEL = ["--a", "-0.5", "--b", "0.2", "--theta", "1"]


def test_limits_prints_rate_limits(capsys):
    code = main(["limits", *MODEL, "--A", "3.3333333333", "--d", "0.2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "r_infinity=0.655" in out
    assert "r_zero=0.581" in out


def test_classify_prints_region(capsys):
    assert main(["classify", *MODEL, "--A", "0.25", "--d", "0.5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "NonSpiking"
    assert main(["classify", *MODEL, "--A", "3.3333", "--d", "0.2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "PermanentSpiking"


def test_sweep_writes_expected_columns(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            *MODEL,
            "--mode",
            "width",
            "--A",
            "3.3333",
            "--d",
            "0.2",
            "--tmin",
            "0.5",
            "--tmax",
            "2.5",
            "--n",
            "12",
            "-o",
            str(out),
        ]
    )
    assert code == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header == "T,eta_num,eta_den,rho_num,rho_den,rate,word,period,converged,contraction_ok"
    lines = out.read_text().split("\n")
    assert lines[-1] == ""  # trailing LF, no CRLF
    assert "\r" not in out.read_text()


def test_sweep_csv_round_trip(tmp_path):
    out = tmp_path / "sweep.csv"
    main(
        [
            "sweep",
            *MODEL,
            "--mode",
            "width",
            "--A",
            "3.3333",
            "--d",
            "0.2",
            "--tmin",
            "0.8",
            "--tmax",
            "2.2",
            "--n",
            "10",
            "-o",
            str(out),
        ]
    )
    samples = read_staircase_csv(out)
    assert len(samples) == 10
    assert all(isinstance(s.eta, Fraction) for s in samples)
    # writing the parsed table again reproduces the file byte-for-byte
    from ifstrobe.cli import SWEEP_COLUMNS, _sweep_rows, _write_csv

    out2 = tmp_path / "again.csv"
    _write_csv(str(out2), SWEEP_COLUMNS, _sweep_rows(samples))
    assert out2.read_bytes() == out.read_bytes()


def test_amplitude_sweep_full_invocation(tmp_path, capsys):
    out = tmp_path / "amp.csv"
    code = main(
        [
            "sweep",
            *MODEL,
            "--mode",
            "amplitude",
            "--delta",
            "3",
            "--Q",
            "0.6667",
            "--tmin",
            "3",
            "--tmax",
            "30",
            "--n",
            "10",
            "-o",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert out.exists()


def test_scan_writes_grid(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "scan",
            *MODEL,
            "--T",
            "1",
            "--dmin",
            "0.2",
            "--dmax",
            "0.8",
            "--dn",
            "3",
            "--iamin",
            "0.5",
            "--iamax",
            "4",
            "--ian",
            "3",
            "-o",
            str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "d,invA,period,eta,capped,failed"
    assert len(lines) == 1 + 9


def test_bif_solves_both_variables(capsys):
    code = main(["bif", *MODEL, "--solve", "A", "--side", "zero", "--spikes", "0", "--d", "0.5", "--T", "2"])
    assert code == EXIT_OK
    assert "A=0.481959" in capsys.readouterr().out
    code = main(["bif", *MODEL, "--solve", "T", "--side", "R", "--spikes", "1", "--A", "3.3333", "--d", "0.2"])
    assert code == EXIT_OK
    assert "T=1.294" in capsys.readouterr().out


def test_bif_numeric_failure_exit_code(capsys):
    code = main(["bif", *MODEL, "--solve", "T", "--side", "R", "--spikes", "1", "--A", "0.25", "--d", "0.5"])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_adding_check_reads_sweep_output(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    main(
        [
            "sweep",
            *MODEL,
            "--mode",
            "width",
            "--A",
            "1.0",
            "--d",
            "0.2",
            "--tmin",
            "1.2",
            "--tmax",
            "9.2",
            "--n",
            "60",
            "--refine",
            "-o",
            str(out),
        ]
    )
    capsys.readouterr()
    code = main(["adding-check", "-i", str(out)])
    assert code == EXIT_OK
    report = capsys.readouterr().out
    assert "0 violations" in report


def test_limits_and_bif_write_one_row_csvs(tmp_path, capsys):
    out = tmp_path / "limits.csv"
    assert main(["limits", *MODEL, "--A", "3.3333", "--d", "0.2", "-o", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8").splitlines() == [
        "r_infinity,r_zero,T0,T1R,T1L,r_max,r_max_at,r_min",
        "0.655388983572,0.581252229082,none,1.29439120726,2.06731353044,"
        "0.772563962416,1.29439120726,0.483719564197",
    ]
    out = tmp_path / "bif.csv"
    bif = ["bif", *MODEL, "--solve", "A", "--side", "zero", "--spikes", "0", "--d", "0.5"]
    assert main([*bif, "--T", "2", "-o", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8").splitlines() == [
        "n,side,d,T,A,residual,xbar",
        "0,zero,0.5,2,0.481959197914,2.220446e-16,0.763918395828",
    ]
    capsys.readouterr()


@pytest.mark.parametrize(
    "A, d, expected",
    [
        ("0.3", "0.5", "NonSpiking (on-amplitude-boundary)"),
        ("0.30000000000000004", "0.5", "ConditionalSpiking (on-amplitude-boundary)"),
        ("0.6", "0.5", "ConditionalSpiking (on-dose-boundary)"),
    ],
)
def test_classify_flags_points_on_a_region_boundary(A, d, expected, capsys):
    assert main(["classify", *MODEL, "--A", A, "--d", d]) == EXIT_OK
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["limits", *MODEL, "--d", "0.5"],
        ["sweep", *MODEL, "--mode", "width", "--d", "0.5", "--tmin", "1", "--tmax", "2", "--n", "3"],
    ],
)
def test_drive_just_above_the_critical_dose_is_a_numeric_failure(argv, capsys):
    # Q_c + 1 ulp reaches the threshold, but the rest point rounds onto it
    assert main([*argv, "--A", "0.30000000000000004"]) == EXIT_NUMERIC
    assert "threshold crossing not resolvable" in capsys.readouterr().err


def test_config_file_sets_mode_and_refine(tmp_path):
    cfg = tmp_path / "amp.cfg"
    cfg.write_text(
        "a=-0.5\nb=0.2\ntheta=1\nmode=amplitude\ndelta=3\nQ=0.6667\n"
        "tmin=3\ntmax=12\nn=6\nrefine=true\n"
    )
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(["sweep", "--config", str(cfg), "-o", str(from_file)]) == EXIT_OK
    flags = ["--mode", "amplitude", "--delta", "3", "--Q", "0.6667", "--tmin", "3", "--tmax", "12"]
    assert main(["sweep", *MODEL, *flags, "--n", "6", "--refine", "-o", str(from_flags)]) == EXIT_OK
    assert from_file.read_bytes() == from_flags.read_bytes()
    # refine=true bisected the steps between the six grid nodes
    assert len(from_file.read_text().splitlines()) > 1 + 6


def test_parse_config_rejects_a_line_without_equals(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("a=-0.5\ntheta 1\n")
    with pytest.raises(ConfigError, match=":2: expected key=value, got 'theta 1'"):
        parse_config(path)


def test_adding_check_rejects_a_csv_that_is_not_a_sweep(tmp_path, capsys):
    out = tmp_path / "limits.csv"
    assert main(["limits", *MODEL, "--A", "3.3333", "--d", "0.2", "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["adding-check", "-i", str(out)]) == EXIT_CONFIG
    assert "not a sweep CSV" in capsys.readouterr().err


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("a=-0.5\nb=0.2\ntheta=1 # threshold\n\n# comment line\nd=0.25\nworkers=2\n")
    cfg = parse_config(path)
    assert (cfg.a, cfg.b, cfg.theta, cfg.d, cfg.workers) == (-0.5, 0.2, 1.0, 0.25, 2)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("a=-0.5\nwat=3\n")
    with pytest.raises(ConfigError, match="line|:2"):
        parse_config(path)


def test_parse_config_rejects_out_of_domain_duty(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("d=1.0\n")
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        parse_config(path)


def test_parse_config_rejects_bad_hypotheses(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("theta=1\na=-0.5\nb=0.6\n")
    with pytest.raises(ConfigError, match="hypothesis"):
        parse_config(path)


def test_cli_flags_override_config(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("a=-0.5\nb=0.2\ntheta=1\nA=0.25\nd=0.5\n")
    assert main(["classify", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "NonSpiking"
    assert main(["classify", "--config", str(path), "--A", "2.0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "PermanentSpiking"


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("d=1.0\n")
    code = main(["classify", "--config", str(path), *MODEL, "--A", "1.0"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_parameters_are_config_errors(capsys):
    assert main(["limits", "--a", "-0.5", "--b", "0.2"]) == EXIT_CONFIG
    capsys.readouterr()


def test_sweep_deterministic_across_worker_flag(tmp_path):
    args = [
        "sweep",
        *MODEL,
        "--mode",
        "width",
        "--A",
        "3.3333",
        "--d",
        "0.2",
        "--tmin",
        "0.8",
        "--tmax",
        "2.0",
        "--n",
        "10",
        "--refine",
    ]
    files = []
    for name, argv in (
        ("w1", [*args, "--workers", "1"]),
        ("w4", [*args, "--workers", "4"]),
        ("w2-first", ["--workers", "2", *args]),
    ):
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]
    # a flag before the subcommand reaches the same attribute as one after it
    assert _build_parser().parse_args(["--workers", "2", *args]).workers == 2
    assert _build_parser().parse_args([*args, "--workers", "2"]).workers == 2


SCAN_GRID = ["--dmin", "0.2", "--dmax", "0.8", "--dn", "3", "--iamin", "0.5", "--iamax", "4", "--ian", "3"]


@pytest.mark.parametrize(
    "bad",
    [
        ("--T", "-1"),
        ("--T", "1", "--cap", "0"),
        ("--T", "1", "--workers", "0"),
        ("--T", "1", "--workers", "-3"),
    ],
)
def test_scan_rejects_out_of_domain_flags(bad, capsys):
    assert main(["scan", *MODEL, *bad, *SCAN_GRID]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad", [("--tol-state", "0"), ("--transient", "-5"), ("--max-period", "0")]
)
def test_sweep_rejects_out_of_domain_orbit_options(bad, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    sweep = ["sweep", *MODEL, "--mode", "width", "--A", "3.3333", "--d", "0.2"]
    argv = [*sweep, "--tmin", "0.8", "--tmax", "2.0", "--n", "3", *bad, "-o", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    key = bad[0].removeprefix("--").replace("-", "_")  # the PARAMS name, as in a config file
    assert f"config error: {key} must" in err
    assert "state_tol" not in err
    assert not out.exists()


def test_config_file_drives_scan(tmp_path):
    by_flags = tmp_path / "flags.csv"
    assert main(["scan", *MODEL, "--T", "1", *SCAN_GRID, "-o", str(by_flags)]) == EXIT_OK
    path = tmp_path / "scan.cfg"
    path.write_text(
        "a=-0.5\nb=0.2\ntheta=1\nT=1\ndmin=0.2\ndmax=0.8\ndn=3\niamin=0.5\niamax=4\nian=3\n"
    )
    by_config = tmp_path / "config.csv"
    assert main(["scan", "--config", str(path), "-o", str(by_config)]) == EXIT_OK
    assert by_config.read_bytes() == by_flags.read_bytes()


def test_tol_time_is_only_a_bif_flag():
    sweep = ["sweep", *MODEL, "--mode", "width", "--A", "3.3333", "--d", "0.2"]
    with pytest.raises(SystemExit) as exc:
        main([*sweep, "--tmin", "0.8", "--tmax", "2.0", "--n", "3", "--tol-time", "1e-3"])
    assert exc.value.code == EXIT_CONFIG
    bif = ["bif", *MODEL, "--solve", "T", "--side", "R", "--spikes", "1", "--A", "3.3333", "--d", "0.2"]
    assert main([*bif, "--tol-time", "1e-12"]) == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *MODEL, "--A", "0.25", "--d", "0.5", "-o", "x.csv"],
        ["--workers", "2", "classify", *MODEL, "--A", "0.25", "--d", "0.5"],
        ["scan", *MODEL, "--T", "1", *SCAN_GRID, "--max-period", "500"],
        ["--max-period", "500", "scan", *MODEL, "--T", "1", *SCAN_GRID],
    ],
)
def test_global_flags_only_where_used(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "x.csv").exists()
    assert "error" in capsys.readouterr().err


def test_unused_config_keys_are_ignored(tmp_path, capsys):
    path = tmp_path / "all.cfg"
    path.write_text(f"a=-0.5\nb=0.2\ntheta=1\nA=0.25\nd=0.5\nworkers=2\nout={tmp_path / 'x.csv'}\n")
    assert main(["classify", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "NonSpiking"
    assert not (tmp_path / "x.csv").exists()


def test_help_tells_decay_rate_from_amplitude(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bif", "--help"])
    assert exc.value.code == EXIT_OK
    usage = capsys.readouterr().out
    assert "--a a " in usage and "--A A " in usage


def test_value_error_in_the_numerics_is_not_a_config_error(monkeypatch, capsys):
    def broken_flow(*args):
        raise ValueError("broken flow")

    monkeypatch.setattr(sys.modules["ifstrobe.bifurcation"], "flow", broken_flow)
    with pytest.raises(ValueError, match="broken flow"):
        main(["limits", *MODEL, "--A", "3.3333", "--d", "0.2"])
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, rule",
    [
        (["limits", *MODEL, "--A", "0.25", "--d", "0.5"], "(A=0.25, d=0.5) lies in the non-spiking region"),
        (["classify", *MODEL, "--A", "-1", "--d", "0.5"], "amplitude A must be finite and >= 0"),
        (
            ["sweep", *MODEL, "--mode", "width", "--A", "3.3333", "--d", "0.2",
             "--tmin", "2", "--tmax", "1", "--n", "3"],
            "period range must satisfy 0 < t_min < t_max",
        ),
        (
            ["sweep", *MODEL, "--mode", "amplitude", "--delta", "3", "--Q", "0.6667",
             "--tmin", "1", "--tmax", "2", "--n", "3"],
            "period range lies at or below the pulse duration",
        ),
        (
            ["sweep", *MODEL, "--mode", "amplitude", "--delta", "1e-300", "--Q", "1e10",
             "--tmin", "1", "--tmax", "2", "--n", "3"],
            "rescaled amplitude Q*T/delta overflows (Q=10000000000.0, T=1.0, delta=1e-300)",
        ),
        (["scan", *MODEL, "--T", "1", *SCAN_GRID, "--dmax", "1.5"], "duty cycle d must lie in the open"),
        (["scan", *MODEL, "--T", "1", *SCAN_GRID, "--iamin", "1e-320"], "amplitude A must be finite"),
        (
            ["bif", *MODEL, "--solve", "A", "--side", "R", "--spikes", "0", "--d", "0.5",
             "--T", "2"],
            "n = 0 admits only the onset collision",
        ),
        (
            ["bif", *MODEL, "--solve", "T", "--side", "zero", "--spikes", "0", "--d", "0.5",
             "--A", "1.2", "--tol-time", "0"],
            "time_tol must be finite and > 0",
        ),
    ],
)  # fmt: skip
def test_inputs_outside_the_library_domain_are_config_errors(argv, rule, capsys):
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {rule}" in capsys.readouterr().err


BIF_T = ["bif", *MODEL, "--solve", "T", "--side", "R", "--spikes", "1", "--d", "0.2"]


@pytest.mark.parametrize(
    "argv, rule",
    [
        (["classify", *MODEL, "--A", "nan", "--d", "0.5"], "amplitude A must be finite and >= 0"),
        (["classify", *MODEL, "--A", "inf", "--d", "0.5"], "amplitude A must be finite and >= 0"),
        (["limits", *MODEL, "--A", "inf", "--d", "0.2"], "amplitude A must be finite and >= 0"),
        (["limits", *MODEL, "--A", "nan", "--d", "0.2"], "amplitude A must be finite and >= 0"),
        ([*BIF_T, "--A", "nan"], "amplitude A must be finite and >= 0"),
        ([*BIF_T, "--A", "inf"], "amplitude A must be finite and >= 0"),
        ([*BIF_T, "--A", "-1"], "amplitude A must be finite and >= 0"),
        (
            ["bif", *MODEL, "--solve", "A", "--side", "R", "--spikes", "1", "--d", "0.5",
             "--T", "inf"],
            "period T must be finite and > 0",
        ),
    ],
    ids=[
        "classify-A-nan", "classify-A-inf", "limits-A-inf", "limits-A-nan",
        "bif-T-A-nan", "bif-T-A-inf", "bif-T-A-negative", "bif-A-T-inf",
    ],
)  # fmt: skip
def test_forcing_outside_its_domain_is_a_config_error(argv, rule, capsys):
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {rule}" in capsys.readouterr().err


def _modules_loaded_by_import(package: str) -> list[str]:
    """Modules of ``package`` that a fresh ``import ifstrobe, ifstrobe.cli`` loads.

    Modules a bare interpreter of the same environment loads (a site hook's)
    do not count.
    """
    src = Path(__file__).resolve().parent.parent / "src"

    def loaded(imports: str) -> set[str]:
        prefix = package + "."
        code = (
            f"import sys{imports}; "
            f"print(*(m for m in sys.modules if m == {package!r} or m.startswith({prefix!r})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return set(out.split())

    return sorted(loaded(", ifstrobe, ifstrobe.cli") - loaded(""))


def test_import_loads_no_scipy():
    assert _modules_loaded_by_import("scipy") == []


def test_import_loads_no_numpy():
    # only reading a PlaneScan matrix imports numpy
    assert _modules_loaded_by_import("numpy") == []


@pytest.mark.parametrize("package", ["dataclasses", "inspect"])
def test_import_loads_neither_dataclasses_nor_inspect(package):
    # the records are NamedTuples, which build no methods from source
    assert _modules_loaded_by_import(package) == []


BIF_A = ["bif", *MODEL, "--solve", "A", "--side", "R", "--spikes", "1", "--d", "0.5"]
T_RULE = "period T must be finite and > 0"
D_RULE = "duty cycle d must lie in the open interval (0, 1)"
THETA_RULE = "theta must be finite and strictly positive"
AMPLITUDE_SWEEP = [
    "sweep", *MODEL, "--mode", "amplitude", "--tmin", "1", "--tmax", "10", "--n", "3"
]
DELTA_RULE = "pulse duration delta must be finite and > 0"
Q_RULE = "dose Q must be finite and >= 0"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "argv, key, value, rule",
    [
        *((BIF_A, "T", v, T_RULE) for v in ("nan", "inf", "0")),
        *((["scan", *MODEL, *SCAN_GRID], "T", v, T_RULE) for v in ("nan", "inf", "0")),
        *((["classify", *MODEL, "--A", "1"], "d", v, D_RULE) for v in ("0", "1", "nan")),
        *((["classify", "--a", "-0.5", "--b", "0.2", "--A", "1", "--d", "0.5"], "theta", v, THETA_RULE)
          for v in ("inf", "0")),
        *(([*AMPLITUDE_SWEEP, "--Q", "0.6"], "delta", v, DELTA_RULE)
          for v in ("0", "-1", "nan", "inf")),
        *(([*AMPLITUDE_SWEEP, "--delta", "1"], "Q", v, Q_RULE) for v in ("-1", "nan", "inf")),
    ],
    ids=[
        "bif-T-nan", "bif-T-inf", "bif-T-0", "scan-T-nan", "scan-T-inf", "scan-T-0",
        "d-0", "d-1", "d-nan", "theta-inf", "theta-0",
        "delta-0", "delta-negative", "delta-nan", "delta-inf",
        "Q-negative", "Q-nan", "Q-inf",
    ],
)  # fmt: skip
def test_d_T_and_theta_follow_the_library_rule(argv, key, value, rule, source, tmp_path, capsys):
    where = ""
    if source == "flag":
        argv = [*argv, f"--{key}", value]
    else:
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key}={value}\n")
        argv = [*argv, "--config", str(path)]
        where = f"{path}: "
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {where}{rule}\n" in capsys.readouterr().err


def test_scan_rows_are_the_plane_scan_matrices(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", *MODEL, "--T", "1", *SCAN_GRID, "--cap", "1", "-o", str(out)]) == EXIT_OK
    scan = scan_plane(
        LinearModel(a=-0.5, b=0.2, theta=1.0),
        1.0,
        _linspace(0.2, 0.8, 3),
        _linspace(0.5, 4.0, 3),
        period_cap=1,
    )
    assert scan.capped.any()
    rows = [
        f"{d:.12g},{inva:.12g},{int(scan.period[i, j])},{scan.eta[i, j]:.12g},"
        f"{int(scan.capped[i, j])},{int(scan.failed[i, j])}"
        for i, d in enumerate(scan.d_grid)
        for j, inva in enumerate(scan.invA_grid)
    ]
    assert out.read_text().splitlines()[1:] == rows
    assert f"{int(scan.capped.sum())} capped, 0 failed" in capsys.readouterr().out


def _fresh_python(code: str) -> str:
    """The last line a fresh interpreter prints running ``code`` against ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.splitlines()[-1]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_subcommand_loads_no_numpy(workers, tmp_path):
    argv = ["scan", *MODEL, "--T", "1", *SCAN_GRID, "--cap", "1", "--workers", workers]
    argv += ["-o", str(tmp_path / "scan.csv")]
    code = f"import sys, ifstrobe.cli; print(ifstrobe.cli.run({argv!r}), 'numpy' in sys.modules)"
    assert _fresh_python(code) == "0 False"


@pytest.mark.parametrize("package", ["concurrent.futures.process", "multiprocessing", "pickle"])
def test_import_loads_no_process_pool(package):
    assert _modules_loaded_by_import(package) == []


TIME_TOL_RULE = "time_tol must be finite and > 0"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("solve", [[*BIF_A, "--T", "2"], [*BIF_T, "--A", "3.3333"]], ids=["A", "T"])
def test_tol_time_outside_its_domain_is_a_config_error(solve, value, capsys):
    assert main([*solve, "--tol-time", value]) == EXIT_CONFIG
    assert f"config error: {TIME_TOL_RULE}\n" in capsys.readouterr().err


SWEEP = ["sweep", *MODEL, "--mode", "width", "--A", "3.3333", "--d", "0.2", "--tmin", "0.8"]
SWEEP += ["--tmax", "2.0", "--n", "3"]


@pytest.mark.parametrize(
    "argv, key, value, rule",
    [
        (SWEEP, "transient", "-5", "transient must be >= 0, got -5"),
        (SWEEP, "max_period", "0", "max_period must be >= 1, got 0"),
        (SWEEP, "tol_state", "0", "tol_state must be finite and > 0, got 0.0"),
        (["scan", *MODEL, "--T", "1", *SCAN_GRID], "cap", "0", "period cap must be at least 1"),
        ([*BIF_T, "--A", "3.3333"], "tol_time", "nan", TIME_TOL_RULE),
    ],
    ids=["transient", "max_period", "tol_state", "cap", "tol_time"],
)
def test_config_errors_name_the_file(argv, key, value, rule, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key}={value}\n")
    assert main([*argv, "--config", str(path)]) == EXIT_CONFIG
    assert f"config error: {path}: {rule}\n" in capsys.readouterr().err


def test_unset_parameters_are_not_passed_to_the_library(monkeypatch):
    cli = sys.modules["ifstrobe.cli"]
    keywords = []

    def recorder(fn):
        def record(*args, **kwargs):
            keywords.append((fn.__name__, set(kwargs)))
            return fn(*args, **kwargs)

        return record

    for name in ("sweep_T", "scan_plane", "bif_A", "bif_T"):
        monkeypatch.setattr(cli, name, recorder(getattr(cli, name)))
    scan = ["scan", *MODEL, "--T", "1", *SCAN_GRID]
    for argv in (SWEEP, scan, [*BIF_A, "--T", "2"], [*BIF_T, "--A", "3.3333"]):
        assert main(argv) == EXIT_OK
    assert main([*scan, "--cap", "1", "--workers", "1"]) == EXIT_OK
    assert keywords == [
        ("sweep_T", {"opts"}),
        ("scan_plane", {"opts"}),
        ("bif_A", set()),
        ("bif_T", set()),
        ("scan_plane", {"opts", "period_cap", "workers"}),
    ]

"""CLI surface: determinism, schemas, exit codes, golden files."""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exocalc.cli import (
    DEFAULTS,
    METRIC_HEADER,
    SCHEMA_LINE,
    _snapshot_blocks,
    fmt,
    load_config,
    main,
    metric_rows,
    sweep_values,
)
from exocalc.pde import SimGrid, WavePacket, simulate_time_domain
from regenerate_fixtures import fixture_tables, write_fixtures

FIXTURES = Path(__file__).parent / "fixtures"

FAST_ARGS = {
    "metric": [],
    "lightcone": [],
    "spectrum": [
        "--set", "theta_dot={\"start\": 0.01, \"stop\": 0.03, \"count\": 3}",
        "--set", "grad_norm=[0.0, 0.001]",
    ],
    "simulate": [
        "--set", "grid.n_x=128",
        "--set", "grid.n_t=128",
        "--set", "grid.dt=0.3",
        "--set", "grid.snapshot_stride=32",
    ],
    "forms-check": ["--set", "seeds=4"],
    "cartan": ["--set", "samples=50"],
}


def run_cli(args):
    return main([str(a) for a in args])


def read_all(path: Path) -> bytes:
    return path.read_bytes()


@pytest.mark.parametrize("command", sorted(FAST_ARGS))
def test_every_subcommand_is_deterministic(command, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli([command, "--out", out, "--seed", 7, *FAST_ARGS[command]]) == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert read_all(outs[0] / name) == read_all(outs[1] / name)


def test_schema_line_and_headers(tmp_path):
    assert run_cli(["metric", "--out", tmp_path]) == 0
    lines = (tmp_path / "metric.csv").read_text().splitlines()
    assert lines[0] == SCHEMA_LINE
    assert lines[1] == METRIC_HEADER


def test_metric_trivial_rows_are_flat(tmp_path):
    assert (
        run_cli(["metric", "--out", tmp_path, "--set", "theta_grad=[0,0,0,0]"]) == 0
    )
    lines = (tmp_path / "metric.csv").read_text().splitlines()[2:]
    diag = {"eta_00": 1.0, "eta_11": -1.0, "eta_22": -1.0, "eta_33": -1.0}
    cols = METRIC_HEADER.split(",")
    for line in lines:
        row = dict(zip(cols, line.split(",")))
        for name, want in diag.items():
            assert float(row[name]) == want
        for name in ("eta_01", "eta_02", "eta_03", "eta_12", "eta_13", "eta_23"):
            assert float(row[name]) == 0.0


def test_metric_doc_config_matches_library_bytes(tmp_path):
    # the sample configuration shown in the README
    doc_config = {
        "theta_grad": [0.0, 0.02, 0.0, 0.0],
        "points": [[0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0]],
        "probe": [1.0, 0.0, 0.0, 0.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc_config))
    assert run_cli(["metric", "--config", cfg_path, "--out", tmp_path]) == 0

    header, rows = metric_rows(doc_config)
    expect = SCHEMA_LINE + "\n" + header + "\n"
    expect += "".join(",".join(r) + "\n" for r in rows)
    assert (tmp_path / "metric.csv").read_text() == expect


def test_flag_overrides_beat_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"theta_dot": 0.5, "theta_prime": 0.25}))
    assert (
        run_cli(
            [
                "lightcone",
                "--config",
                cfg_path,
                "--out",
                tmp_path,
                "--set",
                "theta_prime=0.125",
            ]
        )
        == 0
    )
    lines = (tmp_path / "lightcone.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["theta_dot"]) == 0.5  # from the file
    assert float(row["theta_prime"]) == 0.125  # flag wins over the file


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = run_cli(["metric", "--config", bad, "--out", tmp_path])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path):
    assert run_cli(["metric", "--out", tmp_path, "--set", "bogus=1"]) == 2


def test_partial_nested_config_merges_into_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid": {"n_x": 256}}))
    assert load_config("simulate", str(cfg_path), [])["grid"] == {
        **DEFAULTS["simulate"]["grid"], "n_x": 256
    }
    assert run_cli(["simulate", "--config", cfg_path, "--out", tmp_path]) == 0
    rows = (tmp_path / "simulate_snapshots.csv").read_text().splitlines()[2:]
    assert len(rows) == (1024 // 32 + 1) * 256


@pytest.mark.parametrize(
    "doc, sets",
    [({"grid": {"nx": 256}}, []), ({}, ["grid={\"n_x\": 256, \"bogus\": 1}"])],
    ids=["document", "flag"],
)
def test_unknown_nested_config_key_exits_2(doc, sets, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    args = ["simulate", "--config", cfg_path, "--out", tmp_path]
    assert run_cli(args + [a for s in sets for a in ("--set", s)]) == 2
    assert "unknown config key 'grid." in capsys.readouterr().err


def test_spectrum_degenerate_exits_3(tmp_path):
    code = run_cli(
        ["spectrum", "--out", tmp_path, "--set", "theta_dot=[0.0]", "--set", "grad_norm=[0.0]"]
    )
    assert code == 3


def test_spectrum_golden_fixture_bytes(tmp_path):
    assert run_cli(["spectrum", "--out", tmp_path, "--seed", 42]) == 0
    got = read_all(tmp_path / "spectrum.csv")
    want = read_all(FIXTURES / "spectrum_golden.csv")
    assert got == want


def test_spectrum_rows_content(tmp_path):
    assert run_cli(["spectrum", "--out", tmp_path]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    header = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        if float(row["grad_norm"]) == 0.0:
            assert float(row["imE_plus"]) == float(row["theta_dot"]) / 2


def test_spectrum_svg(tmp_path):
    assert run_cli(["spectrum", "--out", tmp_path, "--svg"]) == 0
    svg = (tmp_path / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_forms_check_golden_fixture_bytes(tmp_path):
    assert run_cli(["forms-check", "--out", tmp_path, "--seed", 42]) == 0
    got = read_all(tmp_path / "forms_check.csv")
    want = read_all(FIXTURES / "forms_check_golden.csv")
    assert got == want


def test_forms_check_all_rows_pass(tmp_path):
    assert run_cli(["forms-check", "--out", tmp_path, "--set", "seeds=6"]) == 0
    lines = (tmp_path / "forms_check.csv").read_text().splitlines()[2:]
    assert len(lines) == 30
    for line in lines:
        identity, _seed, _dim, _deg, grade, ok = line.split(",")
        assert ok == "1"
        if identity == "leibniz":
            assert grade == "inf"


def test_simulate_outputs_and_rate(tmp_path):
    assert (
        run_cli(
            [
                "simulate",
                "--out",
                tmp_path,
                *FAST_ARGS["simulate"],
                "--set",
                "theta_dot=0.0",
            ]
        )
        == 0
    )
    lines = (tmp_path / "simulate_summary.csv").read_text().splitlines()
    assert lines[1] == "t,log_l2_amplitude,fitted_rate"
    rate = float(lines[-1].split(",")[2])
    assert abs(rate) < 1e-3

    snap_lines = (tmp_path / "simulate_snapshots.csv").read_text().splitlines()
    assert snap_lines[1] == "t,x,re_phi,im_phi"


def test_simulate_damped_rate(tmp_path):
    assert (
        run_cli(
            [
                "simulate",
                "--out",
                tmp_path,
                "--set", "grid.n_x=1024",
                "--set", "grid.n_t=2048",
                "--set", "grid.dt=0.16",
                "--set", "grid.snapshot_stride=64",
                "--set", "theta_dot=0.02",
            ]
        )
        == 0
    )
    lines = (tmp_path / "simulate_summary.csv").read_text().splitlines()
    rate = float(lines[-1].split(",")[2])
    assert abs(abs(rate) - 0.01) / 0.01 < 0.02


def test_simulate_svg_output(tmp_path):
    assert (
        run_cli(["simulate", "--out", tmp_path, "--svg", *FAST_ARGS["simulate"]]) == 0
    )
    svg = (tmp_path / "simulate.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_simulate_unstable_exits_4(tmp_path):
    code = run_cli(
        [
            "simulate",
            "--out",
            tmp_path,
            "--set", "grid.n_x=256",
            "--set", "grid.n_t=4000",
            "--set", "grid.x_max=100.0",
            "--set", "grid.dt=0.33",
            "--set", "grid.snapshot_stride=200",
            "--set", "m=6.0",
        ]
    )
    assert code == 4


def test_simulate_cfl_violation_is_config_error(tmp_path):
    code = run_cli(
        ["simulate", "--out", tmp_path, "--set", "grid.dt=5.0", "--set", "grid.n_x=64"]
    )
    assert code == 2


def test_cartan_outputs(tmp_path):
    assert run_cli(["cartan", "--out", tmp_path, "--set", "samples=200"]) == 0
    lines = (tmp_path / "cartan.csv").read_text().splitlines()
    assert lines[1] == "idx,roundtrip_err,nullity_residual,det_residual"
    assert len(lines) == 2 + 200
    for line in lines[2:]:
        _, roundtrip, nullity, det = line.split(",")
        assert float(roundtrip) <= 1e-12
        assert float(nullity) <= 1e-12
        assert float(det) <= 1e-10


def test_cartan_empty_run(tmp_path):
    assert run_cli(["cartan", "--out", tmp_path, "--set", "samples=0"]) == 0
    lines = (tmp_path / "cartan.csv").read_text().splitlines()
    assert len(lines) == 2


def test_spectrum_reruns_are_byte_identical(tmp_path):
    for tag in ("a", "b"):
        assert run_cli(["spectrum", "--out", tmp_path / tag, "--seed", 3, *FAST_ARGS["spectrum"]]) == 0
    assert read_all(tmp_path / "a" / "spectrum.csv") == read_all(tmp_path / "b" / "spectrum.csv")


def test_generate_fixtures_reproduces_committed_bytes(tmp_path):
    tables = fixture_tables(42)
    for name, (_, oracle_rows, impl_rows) in tables.items():
        assert oracle_rows == impl_rows, name
    paths = write_fixtures(tmp_path, tables)
    assert sorted(p.name for p in paths) == ["forms_check_golden.csv", "spectrum_golden.csv"]
    for path in paths:
        assert read_all(path) == read_all(FIXTURES / path.name)


def test_generate_fixtures_is_not_a_command(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate-fixtures", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_module_entry_point_smoke(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "exocalc",
            "cartan",
            "--out",
            str(tmp_path),
            "--set",
            "samples=5",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "cartan.csv").exists()


def test_importing_the_cli_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, exocalc.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_forms_check_hundred_seed_budget(tmp_path):
    import time

    start = time.time()
    assert (
        run_cli(
            [
                "forms-check",
                "--out",
                tmp_path,
                "--set",
                "seeds=100",
                "--set",
                "dimension=4",
                "--set",
                "degree=3",
            ]
        )
        == 0
    )
    elapsed = time.time() - start
    assert elapsed < 30
    lines = (tmp_path / "forms_check.csv").read_text().splitlines()[2:]
    assert len(lines) == 500
    assert all(line.endswith(",1") for line in lines)


def test_sweep_values_forms():
    assert sweep_values(2.0) == [2.0]
    assert sweep_values([1, 2]) == [1.0, 2.0]
    assert sweep_values({"start": 0.0, "stop": 1.0, "count": 3}) == [0.0, 0.5, 1.0]
    from exocalc.cli import ConfigError

    with pytest.raises(ConfigError):
        sweep_values([])
    with pytest.raises(ConfigError):
        sweep_values({"start": 0.0})


def test_fmt_stability():
    assert fmt(1) == "1"
    assert fmt(0.01) == "1.000000000000e-02"
    assert fmt(float("inf")) == "inf"
    assert fmt(float("-inf")) == "-inf"
    assert fmt(float("nan")) == "nan"
    assert fmt(-0.0) == "-0.000000000000e+00"
    assert fmt(5e-324) == "4.940656458412e-324"
    assert DEFAULTS["spectrum"]["m"] == [1.0]


@pytest.mark.parametrize(
    "override, code",
    [
        ("grid.snapshot_stride=600", 2),  # one stored snapshot
        ("grid.snapshot_stride=0", 2),
        ("grid.dt=-0.1", 2),
        ("grid.dt=0", 2),
        ("grid.n_x=abc", 2),
        ("grid.n_x=[1]", 2),
        ("grid.bc=foo", 2),
        ("fit_window=[0,1]", 2),  # selects only t = 0
        ("fit_window=abc", 2),
        ("grid.n_x=256.7", 2),  # not truncated to 256
        ("grid.n_x=true", 2),
        ("include_x_term=abc", 2),  # not read as true
        ("theta_dot=NaN", 2),
        ("packet=5", 2),
        ("packet.amplitude=0", 3),
        ("packet.width=0", 2),
        ("packet.width=-12", 2),  # not squared into a valid width
        ("packet.width=1e-300", 3),  # its square underflows to zero
        # the implicit solver's band overflows: a non-finite field, not a config error
        ("grid.bc=dirichlet include_x_term=true theta_dot=1e300", 4),
    ],
)
def test_simulate_bad_inputs_exit_without_traceback(override, code, tmp_path, capsys):
    sets = [a for s in override.split() for a in ("--set", s)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["simulate", "--out", tmp_path, *FAST_ARGS["simulate"], *sets]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "simulate_snapshots.csv").exists()


def test_overflowing_x_term_run_is_instability_without_numpy_warnings(tmp_path):
    sets = ["--set", "grid.bc=dirichlet", "--set", "include_x_term=true", "--set", "theta_dot=1e300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # documented: extent * |grad theta| is far above 0.1 here
        warnings.filterwarnings("ignore", "point-dependent term", UserWarning)
        assert run_cli(["simulate", "--out", tmp_path, *FAST_ARGS["simulate"], *sets]) == 4


def test_unusable_out_dir_fails_before_simulating(tmp_path, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the leapfrog ran before the output directory was checked")

    monkeypatch.setattr("exocalc.cli.simulate_time_domain", must_not_run)
    (tmp_path / "file").write_text("")
    assert run_cli(["simulate", "--out", tmp_path / "file", *FAST_ARGS["simulate"]]) == 2


BAD_INPUTS = [  # command, space-separated overrides, output file, exit code[, --out under tmp_path]
    ("lightcone", "c=0", "lightcone.csv", 2),
    ("lightcone", "c=-1", "lightcone.csv", 2),
    ("forms-check", "seeds=-5", "forms_check.csv", 2),
    ("forms-check", "seeds=0", "forms_check.csv", 2),
    ("lightcone", "c=abc", "lightcone.csv", 2),
    ("lightcone", "points=[[1,2,3]]", "lightcone.csv", 2),
    ("forms-check", "seeds=abc", "forms_check.csv", 2),
    ("forms-check", "seeds=2.5", "forms_check.csv", 2),  # not truncated to 2
    ("cartan", "samples=abc", "cartan.csv", 2),
    ("cartan", "samples=-3", "cartan.csv", 2),
    ("metric", "points=[[1,2]]", "metric.csv", 2),
    ("metric", "probe=[1,2]", "metric.csv", 2),
    ("spectrum", 'theta_dot={"start":"a","stop":0.02,"count":2}', "spectrum.csv", 2),
    ("spectrum", "m=[true]", "spectrum.csv", 2),  # not read as m = 1
    ("spectrum", 'grad_norm={"start":0,"stop":0.1,"count":2.5}', "spectrum.csv", 2),
    ("spectrum", "box.spatial=[[0,1]]", "spectrum.csv", 2),  # three intervals needed
    ("metric", "theta_grad=[0,1e308,0,0]", "metric.csv", 3),  # overflows once squared
    ("spectrum", "theta_dot=[1e308] grad_norm=[1e308]", "spectrum.csv", 3),
    ("spectrum", "theta_dot=[1e-100] grad_norm=[1e140]", "spectrum.csv", 3),
    ("lightcone", "c=1e-200", "lightcone.csv", 3),  # c * c underflows to 0
    ("spectrum", "box.t1=1e308 m=[2.0]", "spectrum.csv", 3),  # the kernel phase overflows
    ("metric", "", "metric.csv", 2, "file"),  # --out names an existing file
    ("metric", "", "metric.csv", 2, "file/sub"),  # --out lies under a file
]


@pytest.mark.parametrize(
    "command, overrides, csv_name, code, out",
    [case if len(case) == 5 else (*case, ".") for case in BAD_INPUTS],
    ids=["-".join(case[:3] + case[4:]) for case in BAD_INPUTS],
)
def test_out_of_range_inputs_exit_2_without_traceback(
    command, overrides, csv_name, code, out, tmp_path, capsys
):
    (tmp_path / "file").write_text("")
    sets = [a for s in overrides.split() for a in ("--set", s)]
    assert run_cli([command, "--out", tmp_path / out, *FAST_ARGS[command], *sets]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / csv_name).exists()


any_double = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(
    t=any_double,
    xs=st.lists(any_double, min_size=1, max_size=6),
    parts=st.lists(any_double, min_size=12, max_size=12),
)
@example(t=-0.0, xs=[5e-324, -5e-324], parts=[float("nan"), float("inf"), float("-inf"), 0.0,
                                            -0.0, 1.7976931348623157e308] * 2)
def test_snapshot_block_cells_equal_fmt(t, xs, parts):
    snap = np.empty((1, len(xs)), dtype=np.complex128)
    snap.real = parts[: len(xs)]
    snap.imag = parts[6 : 6 + len(xs)]
    (block,) = _snapshot_blocks(np.array([t]), np.array(xs), snap)
    want = [[fmt(t), fmt(x), fmt(v.real), fmt(v.imag)] for x, v in zip(xs, snap[0])]
    assert [line.split(",") for line in block.splitlines()] == want
    assert block.endswith("\n")


@pytest.mark.parametrize(
    "sets",
    [
        ["grid.n_x=64", "grid.n_t=40", "grid.snapshot_stride=3"],
        ["grid.bc=dirichlet", "grid.n_x=48", "grid.x_max=24.0", "grid.dt=0.2", "grid.n_t=50",
         "grid.snapshot_stride=5", "packet.center=12.0", "packet.width=3.0"],
    ],
    ids=["periodic", "dirichlet"],
)
def test_snapshot_csv_matches_per_cell_fmt(sets, tmp_path):
    """The streamed snapshot file equals the one built row by row from ``fmt``."""
    assert run_cli(["simulate", "--out", tmp_path, *[a for s in sets for a in ("--set", s)]]) == 0
    cfg = load_config("simulate", None, sets)
    grid = SimGrid(**cfg["grid"])
    simulate_time_domain(
        grid, cfg["m"], cfg["theta_dot"], cfg["theta_prime"], initial=WavePacket(**cfg["packet"])
    )
    rows = [
        [fmt(t), fmt(x), fmt(v.real), fmt(v.imag)]
        for t, snap in zip(grid.times, grid.snapshots)
        for x, v in zip(grid.xs(), snap)
    ]
    want = SCHEMA_LINE + "\nt,x,re_phi,im_phi\n" + "".join(",".join(r) + "\n" for r in rows)
    assert (tmp_path / "simulate_snapshots.csv").read_text() == want


def test_config_values_are_typed_by_their_defaults():
    cfg = load_config("lightcone", None, ["c=1", "points=[[0, 1], [2, 3.5]]"])
    assert cfg["c"] == 1.0 and type(cfg["c"]) is float
    assert cfg["points"] == [[0.0, 1.0], [2.0, 3.5]]
    assert all(type(v) is float for row in cfg["points"] for v in row)
    assert type(load_config("cartan", None, ["samples=3"])["samples"]) is int
    assert load_config("metric", None, ["points=[]"])["points"] == []
    sim = load_config("simulate", None, ["include_x_term=true", "fit_window=[1, 2]"])
    assert sim["include_x_term"] is True and sim["fit_window"] == [1, 2]
    # the sweep axes keep their several forms for sweep_values
    assert load_config("spectrum", None, ["m=2"])["m"] == 2


def test_bool_key_needs_json_bool(tmp_path, capsys):
    assert run_cli(["simulate", "--out", tmp_path, "--set", "include_x_term=abc"]) == 2
    err = capsys.readouterr().err
    assert "include_x_term" in err and "dirichlet" not in err


def _dotted_keys(node, prefix=""):
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _dotted_keys(value, f"{prefix}{key}.")


CONFIG_KEYS = [(command, key) for command in FAST_ARGS for key in _dotted_keys(DEFAULTS[command])]
# keys whose integers set a loop length, directly or inside a sweep {start, stop, count}
SIZE_KEYS = {"n_t", "n_x", "seeds", "samples", "count", "theta_dot", "grad_norm", "m", "grid"}


def _json_values(max_int=None):
    scalars = (
        st.text(max_size=3) | st.booleans() | st.none() | st.integers(max_value=max_int)
        | st.floats().filter(lambda v: not v.is_integer())
        | st.sampled_from([math.nan, math.inf, -math.inf])
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=8,
    )


@st.composite
def _config_case(draw):
    command, key = draw(st.sampled_from(CONFIG_KEYS))
    small = SIZE_KEYS.intersection(key.split("."))
    return command, key, draw(_json_values(64 if small else None))


@settings(deadline=None, max_examples=60)
@given(case=_config_case())
def test_any_config_value_keeps_the_exit_code_contract(case):
    """A drawn value, by flag or in a document, exits 0, 2, 3 or 4 and raises nothing."""
    command, key, value = case
    doc = value
    for part in reversed(key.split(".")):
        doc = {part: doc}
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        fast, codes = FAST_ARGS[command], (0, 2, 3, 4)
        assert run_cli([command, "--out", tmp, *fast, "--set", f"{key}={json.dumps(value)}"]) in codes
        # the document's value must not be overridden by the same key's fast flag
        fast = [a for s in fast[1::2] if s.partition("=")[0] != key for a in ("--set", s)]
        assert run_cli([command, "--out", tmp, "--config", cfg_path, *fast]) in codes

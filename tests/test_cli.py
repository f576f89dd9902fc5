"""CLI surface: determinism, schemas, exit codes, golden files."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from exocalc.cartan import gauss_pairs
from exocalc.cells import BLOCK_VALUES, _cells, _indexed_lines, _snapshot_blocks
from exocalc.cli import (
    CARTAN_CHUNK,
    DEFAULTS,
    METRIC_HEADER,
    SCHEMA_LINE,
    cartan_rows,
    fmt,
    load_config,
    main,
    metric_rows,
    sweep_values,
    write_csv,
)
from exocalc.pde import AMPLITUDE_ABORT, SimGrid, WavePacket, simulate_time_domain
from cartan_reference import cartan_rows_reference
from fmt_sweep import edge_values, fast_cells_match, random_values
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


@pytest.mark.parametrize("command", ["metric", "lightcone"])
def test_default_csv_bytes_match_the_benchmark_digests(command, tmp_path):
    """At its defaults ``command`` writes the bytes whose sha256 the benchmark pins;
    its cells are pure-Python floats, so the digest does not depend on the host."""
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    digest = json.loads(expected.read_text())["digests"][f"{command}.csv"]
    assert run_cli([command, "--out", tmp_path]) == 0
    assert hashlib.sha256((tmp_path / f"{command}.csv").read_bytes()).hexdigest() == digest


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
    for text in ("{ not json", "[1, 2]"):  # not JSON, and JSON that is not an object
        bad.write_text(text)
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


@pytest.mark.parametrize("key", ["m.x", "grid.n_x.a", "bogus.a"])
def test_a_dotted_set_fails_as_its_one_key_document(key, tmp_path, capsys):
    """``--set a.b=1`` is the document ``{"a": {"b": 1}}``: the same exit code and message."""
    doc = 1
    for part in reversed(key.split(".")):
        doc = {part: doc}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--out", tmp_path / "flag", "--set", f"{key}=1"]) == 2
    flag_err = capsys.readouterr().err
    assert run_cli(["simulate", "--out", tmp_path / "doc", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == flag_err
    assert flag_err.startswith("config error: ") and flag_err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, sets",
    [(None, ["grid=5", "grid.n_x=128"]), ({"grid": 5}, ["grid.n_x=128"]),
     (None, ["grid=5", "grid={\"n_x\": 1}"]),
     # a key of the section set into the partial section: the section fails, not the key
     (None, ["grid=5", "grid.n_x=128", "grid.n_t=5"])],
    ids=["dotted", "document", "object", "dotted-twice"],
)
def test_a_section_set_over_a_non_object_exits_2(doc, sets, tmp_path, capsys):
    """A section replaced by a non-object and then set in part is a partial
    section: a config error, not a missing-key crash."""
    args = ["simulate", "--out", tmp_path / "out", *(a for s in sets for a in ("--set", s))]
    if doc is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        args += ["--config", cfg_path]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid must be typed like its default ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_dotted_set_merges_into_a_sweep_axis_given_as_a_range():
    """A sweep axis whose default is a list takes a dotted key of the range it
    was given, as a section does."""
    cfg = load_config("spectrum", None, ['m={"start": 1, "stop": 2, "count": 3}', "m.count=5"])
    assert cfg["m"] == {"start": 1, "stop": 2, "count": 5}


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


def test_a_residual_of_finite_grade_is_written_as_its_digits():
    """With the undeformed ``d`` in place of the exotic one, the ``d_squared`` and
    field-strength residuals keep a grade-1 term: the cell is ``1`` and the row fails."""
    from exocalc.cli import forms_identity_rows
    from exocalc.forms import exterior_d

    rows = forms_identity_rows(0, 3, 2, d_fn=lambda form, grad: exterior_d(form))
    assert [row[4:] for row in rows] == [("inf", "1"), ("1", "0"), ("inf", "1"), ("inf", "1"), ("1", "0")]


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


def test_a_seeded_level_over_the_threshold_exits_4_at_step_0(tmp_path, capsys):
    """The probe sees the two seeded levels too: here |phi| is 1.10e12 at t = 0
    and 1.017e12 at t = 0.3, and under 1e12 at every step after them."""
    sets = ["packet.amplitude=1.1e12", "theta_dot=-6.6", "grid.snapshot_stride=1", "grid.n_t=6"]
    assert run_cli(["simulate", "--out", tmp_path, *(a for s in sets for a in ("--set", s))]) == 4
    assert "instability detected at step 0 (t = 0): max |phi| = 1.100e+12" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("seed", [7, 42, 5])
def test_cartan_rows_match_the_per_sample_reference(seed):
    # sample counts straddle the boundaries of 1024-sample chunks
    counts = (0, 1, 1023, 1024, 1025, 2051)
    reference = cartan_rows_reference(max(counts), seed)
    for n in counts:
        _, rows = cartan_rows({"samples": n}, seed)
        assert len(rows) == n
        assert rows == reference[:n]


def test_cartan_seed_913_rows_stay_within_the_benchmark_tolerance():
    # row 742 draws a lam of raw |det| 4.7e-4; its unscaled det residual read 1.61e-8
    _, rows = cartan_rows({"samples": 20000}, 913)
    cells = np.array([row.split(",")[1:] for row in rows], dtype=float)
    assert (cells[:, :2] <= 1e-12).all() and (cells[:, 2] <= 1e-8).all()


def test_cartan_rows_match_the_reference_at_benchmark_size():
    _, rows = cartan_rows({"samples": 20000}, 5)
    assert len(rows) == 20000
    assert rows == cartan_rows_reference(20000, 5)


CARTAN_LINE = "%d," + ",".join(["%.12e"] * 3) + "\n"
# cells the drawn samples never reach: zeros, a subnormal, the fast path's far ends, non-finite
EDGE_CELLS = [0.0, -0.0, 5e-324, 1e-300, 1e300, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("start", [0, 9, 1020, 99_990])
def test_indexed_lines_write_percent_12e_of_edge_cells(start):
    """Every value of ``EDGE_CELLS`` in every column, next to drawn-like values,
    and index widths that change inside the chunk."""
    rng = np.random.default_rng(start)
    columns = [np.roll(EDGE_CELLS * 2, k) * rng.choice([1.0, -1.0], 16) for k in range(3)]
    columns[1][::5] = rng.lognormal(-30.0, 5.0, 4)
    lines = _indexed_lines(start, columns)
    want = [CARTAN_LINE % (start + i, *row) for i, row in enumerate(zip(*(c.tolist() for c in columns)))]
    assert lines == want


def test_a_nonfinite_cartan_residual_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    from exocalc import cartan

    residuals = cartan.sample_residuals

    def one_nan(s, lam):
        roundtrip, nullity, det_res = residuals(s, lam)
        nullity[len(nullity) // 2] = math.nan
        return roundtrip, nullity, det_res

    monkeypatch.setattr(cartan, "sample_residuals", one_nan)
    assert run_cli(["cartan", "--out", tmp_path, "--set", "samples=50"]) == 3
    assert "cartan.csv would hold a value that is not finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [1, 7, 42, 913, 12345])
def test_gauss_pairs_continue_the_random_gauss_stream_bit_for_bit(seed):
    rng, reference = random.Random(seed), random.Random(seed)
    # draw counts of 2, 12 * 1025, 36 and 14 normals: none a multiple of CARTAN_CHUNK
    for pairs in (1, 6 * (CARTAN_CHUNK + 1), 18, 7):
        expected = np.array([reference.gauss(0, 1) for _ in range(2 * pairs)])
        assert gauss_pairs(rng, pairs).view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert rng.getstate() == reference.getstate()


class FixedWords(random.Random):
    """A stream whose every 32-bit word is ``word``, as words and as ``random()``."""

    def __init__(self, word: int):
        self.word = word
        super().__init__(0)

    def getrandbits(self, k):
        return int.from_bytes(self.word.to_bytes(4, "little") * (k // 32), "little")

    def random(self):
        return ((self.word >> 5) * 67108864.0 + (self.word >> 6)) * (1.0 / 9007199254740992.0)


# all-zero words give u1 = u2 = 0, so g = sqrt(-2 * log(1)) = -0.0; gauss returns +0.0
@pytest.mark.parametrize("word", [0, 0xFFFFFFFF])
def test_gauss_pairs_on_crafted_words_equal_random_gauss(word):
    reference = FixedWords(word)
    expected = np.array([reference.gauss(0, 1) for _ in range(6)])
    got = gauss_pairs(FixedWords(word), 3)
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    if word == 0:
        assert got.tolist() == [0.0] * 6 and not np.signbit(got).any()


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


SRC = Path(__file__).resolve().parents[1] / "src"
# every library layer; ``import exocalc.cli`` loads none of them
LAYERS = {f"exocalc.{p.stem}" for p in (SRC / "exocalc").glob("*.py")} - {
    "exocalc.__init__", "exocalc.__main__", "exocalc.core", "exocalc.cli",
}


# the bulk cell formatter: its module, and its ``_cells`` in the CLI module
FORMATTER = {"exocalc.cells", "exocalc.cli._cells"}


@pytest.mark.parametrize(
    "command, absent",
    [
        # ``dataclasses`` imports ``inspect``; no pure-Python command needs either
        (None, LAYERS | {"numpy", "scipy", "dataclasses", "inspect", "json"}),
        # only ``--config`` and ``--set`` read JSON, and only simulate and cartan
        # write through the bulk cell formatter
        ("metric", {"numpy", "dataclasses", "inspect", "json", *FORMATTER}),
        ("lightcone", {"numpy", "dataclasses", "inspect", "json", *FORMATTER}),
        ("forms-check", {"numpy", "dataclasses", "inspect", "json", *FORMATTER}),
        # only the implicit x-term step needs scipy, no command the gamma layer,
        # and only plane_wave_rates (the simulator's) numpy
        ("spectrum", {"exocalc.clifford", "scipy", "numpy", "dataclasses", "inspect", "json",
                      *FORMATTER}),
        ("simulate", {"exocalc.clifford", "scipy", "json"}),
        ("cartan", {f"exocalc.{m}" for m in ("pde", "dispersion", "forms", "poly", "metric")}),
    ],
    ids=["import-cli", "metric", "lightcone", "forms-check", "spectrum", "simulate", "cartan"],
)
def test_each_command_loads_only_its_own_layer(command, absent, tmp_path):
    """A fresh interpreter runs ``command`` at its defaults (``None``: only imports
    the CLI) and loads none of the modules in ``absent``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    code = "import runpy, sys\n"
    if command is None:
        code += "import exocalc.cli\n"
    else:
        code += (
            f"sys.argv = ['exocalc', {command!r}, '--out', {str(tmp_path)!r}]\n"
            "try:\n"
            "    runpy.run_module('exocalc', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
        )
    # the probe imports nothing that ``absent`` names; it lists the loaded modules
    # and the ``_cells`` any exocalc module holds
    code += (
        "cells = [m + '._cells' for m in list(sys.modules)\n"
        "         if m.startswith('exocalc') and hasattr(sys.modules[m], '_cells')]\n"
        "print(' '.join(sorted(sys.modules) + cells))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert not absent & loaded


def unused_imports(source: str) -> list:
    """Names that ``source`` imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    assert unused_imports("import os\nimport math\nfrom a import b as c\nmath.pi\n") == [
        (1, "os"), (3, "c"),
    ]
    found = {
        path.name: unused for path in sorted((SRC / "exocalc").glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_exit_code_errors_are_defined_once_in_core():
    import exocalc.core
    import exocalc.dispersion
    import exocalc.pde

    assert exocalc.pde.InstabilityError is exocalc.core.InstabilityError
    assert exocalc.dispersion.DegenerateParameterError is exocalc.core.DegenerateParameterError


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
    assert sweep_values({"start": 0.5, "stop": 1.0, "count": 1}) == [0.5]
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
        ("grid.x_max=-5", 2),  # an empty interval, not a time step violation
        ("grid.n_x=7", 2),
        ("grid.n_t=1", 2),
        ("include_x_term=true", 2),  # on the default periodic grid
        ("fit_window=[0,1]", 2),  # selects only t = 0
        ("fit_window=abc", 2),
        ("grid.n_x=256.7", 2),  # not truncated to 256
        ("grid.n_x=true", 2),
        ("include_x_term=abc", 2),  # not read as true
        ("theta_dot=NaN", 2),
        ("packet=5", 2),
        ("packet.amplitude=0", 3),
        # the norm underflows to zero after the fit window: no -inf log amplitude written
        ("packet.amplitude=1e-155 theta_dot=-1.0 fit_window=[0,20] grid.snapshot_stride=8", 3),
        ("packet.width=0", 2),
        ("packet.width=-12", 2),  # not squared into a valid width
        ("packet.width=1e-300", 3),  # its square underflows to zero
        ("packet.width=1e-160", 0),  # the envelope's exponent overflows to -inf
        ("grid.dt=1e-300", 3),  # the squared snapshot times underflow: no rate to fit
        # the implicit solver's band overflows: a non-finite field, not a config error
        ("grid.bc=dirichlet include_x_term=true theta_dot=1e300", 4),
        # at step 80 the band's diagonal rounds to 0 and the row at x = 0 is zero: singular
        ("grid.x_min=-4.0 grid.x_max=4.0 grid.n_x=65 grid.dt=0.05 grid.n_t=100 grid.bc=dirichlet "
         "grid.snapshot_stride=10 include_x_term=true theta_dot=0.12461059190031153 "
         "packet.center=0.0 packet.width=1.0 packet.wavenumber=0.0", 3),
        # overflowing parameters or amplitude: the probe reports them, numpy stays quiet
        ("m=1e300", 4),
        ("theta_prime=1e300", 4),
        ("packet.amplitude=1e300", 4),
        # a grid no machine can hold: its first allocation fails at once
        ("grid.n_x=1000000000000000 grid.dt=1e-20", 3),
    ],
)
def test_simulate_bad_inputs_exit_without_traceback(override, code, tmp_path, capsys):
    sets = [a for s in override.split() for a in ("--set", s)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["simulate", "--out", tmp_path, *FAST_ARGS["simulate"], *sets]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in capsys.readouterr().err
    # only a run that exits 0 writes its snapshots
    assert (tmp_path / "simulate_snapshots.csv").exists() == (code == 0)


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

    monkeypatch.setattr("exocalc.pde.simulate_time_domain", must_not_run)
    (tmp_path / "file").write_text("")
    assert run_cli(["simulate", "--out", tmp_path / "file", *FAST_ARGS["simulate"]]) == 2


OUTPUTS = [  # command, output file, flags that make the command write it
    ("metric", "metric.csv", []),
    ("lightcone", "lightcone.csv", []),
    ("spectrum", "spectrum.csv", []),
    ("spectrum", "spectrum.svg", ["--svg"]),
    ("forms-check", "forms_check.csv", []),
    ("cartan", "cartan.csv", []),
    ("simulate", "simulate_snapshots.csv", []),
    ("simulate", "simulate_summary.csv", []),
    ("simulate", "simulate.svg", ["--svg"]),
]


@pytest.mark.parametrize("command, blocked, flags", OUTPUTS, ids=[case[1] for case in OUTPUTS])
def test_an_output_name_taken_by_a_directory_exits_2_and_writes_nothing(
    command, blocked, flags, tmp_path, capsys
):
    """A run writes all of its files or none: a directory in the way of one of
    them is a config error naming that file, and only the directory is left."""
    (tmp_path / blocked).mkdir()
    assert run_cli([command, "--out", tmp_path, *flags, *FAST_ARGS[command]]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config error: cannot write {tmp_path / blocked}: Is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    assert not any((tmp_path / blocked).iterdir())


def test_a_target_taken_by_a_directory_keeps_the_earlier_run_files(tmp_path, capsys):
    """A directory in the way of one target fails the run before any file is
    renamed, so the file an earlier run left under another target stays."""
    args = ["spectrum", "--out", tmp_path, *FAST_ARGS["spectrum"]]
    assert run_cli(args) == 0
    earlier = read_all(tmp_path / "spectrum.csv")
    (tmp_path / "spectrum.svg").mkdir()
    capsys.readouterr()
    assert run_cli([*args, "--svg"]) == 2
    assert f"cannot write {tmp_path / 'spectrum.svg'}: Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.csv", "spectrum.svg"]
    assert read_all(tmp_path / "spectrum.csv") == earlier


def test_a_temporary_name_taken_by_a_directory_is_named(tmp_path, capsys):
    """The error names the temporary path when that is what cannot be written."""
    (tmp_path / ".metric.csv.tmp").mkdir()
    assert run_cli(["metric", "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write {tmp_path / '.metric.csv.tmp'}: Is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == [".metric.csv.tmp"]


@pytest.mark.parametrize("stop", [MemoryError, KeyboardInterrupt])
def test_a_failure_inside_the_snapshot_stream_leaves_no_file(stop, tmp_path, monkeypatch, capsys):
    """A run stopped after its first snapshot block is written leaves ``--out``
    empty: out of memory is exit 3, and an interrupt is exit 130, each with
    one stderr line."""
    def one_block_then_stop(*args):
        yield next(_snapshot_blocks(*args))
        raise stop("stopped after one block")

    monkeypatch.setattr("exocalc.cells._snapshot_blocks", one_block_then_stop)
    args = ["simulate", "--out", tmp_path, *FAST_ARGS["simulate"]]
    assert run_cli(args) == (3 if stop is MemoryError else 130)
    assert capsys.readouterr().err.count("\n") == 1
    assert not any(tmp_path.iterdir())


CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
ENTRY_POINTS = {
    "python -m": ["-m", "exocalc"],
    "cli.main": ["-c", "import sys; from exocalc.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_closed_stdout_after_a_full_write_exits_0_quietly(entry, tmp_path):
    """A reader that went away before the file names are printed costs only the names."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *ENTRY_POINTS[entry], "metric", "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [p.name for p in tmp_path.iterdir()] == ["metric.csv"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_failing_stdout_after_a_full_write_exits_2_in_one_line(entry, tmp_path):
    """A stdout that cannot take the file names is a config error, and the
    files the run wrote stay."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, *ENTRY_POINTS[entry], "metric", "--out", str(tmp_path)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
        )
    assert proc.returncode == 2
    assert proc.stderr == "config error: cannot write to stdout: No space left on device\n"
    assert [p.name for p in tmp_path.iterdir()] == ["metric.csv"]


def test_an_interrupt_during_compute_exits_130_in_one_line(tmp_path):
    """SIGINT once ``--out`` exists, during a compute of about a second: exit
    130, one stderr line and no file."""
    out = tmp_path / "out"
    sets = ["grid.n_x=4096", "grid.dt=0.04", "grid.n_t=20000", "grid.snapshot_stride=2000"]
    args = ["simulate", "--out", str(out), *(a for s in sets for a in ("--set", s))]
    proc = subprocess.Popen(
        [sys.executable, "-m", "exocalc", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
    )
    while not out.exists() and proc.poll() is None:  # --out is made before compute starts
        time.sleep(0.001)
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate()
    assert (proc.returncode, stdout, stderr) == (130, "", "interrupted: simulate\n")
    assert not any(out.iterdir())


def _one_megabyte_files():
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # so a write past the limit fails with EFBIG
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))


@pytest.mark.skipif(resource is None, reason="needs the resource module")
@pytest.mark.parametrize(
    "command, sets, temp",
    [("simulate", [], ".simulate_snapshots.csv.tmp"), ("cartan", ["--set", "samples=20000"], ".cartan.csv.tmp")],
    ids=["simulate", "cartan"],
)
def test_a_full_disk_exits_2_names_the_file_and_leaves_none(command, sets, temp, tmp_path):
    """A file that outgrows the space it may take is a config error naming its
    temporary path, and the run removes what it wrote."""
    proc = subprocess.run(
        [sys.executable, "-m", "exocalc", command, "--out", str(tmp_path), *sets],
        capture_output=True, text=True, env=CHILD_ENV, preexec_fn=_one_megabyte_files,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"config error: cannot write {tmp_path / temp}: File too large\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["forms-check", "cartan"])
def test_seed_outside_u64_exits_2_and_writes_nothing(command, tmp_path, capsys):
    """``--seed`` is a u64: CPython would seed -1 as 1 and accept 2**64 silently.
    forms-check draws its ``seeds`` (4 here) from ``--seed`` on, so its last seed
    must be a u64 too."""
    for seed in (-1, 2**64):
        with pytest.raises(SystemExit) as exit_info:
            run_cli([command, "--out", tmp_path / str(seed), "--seed", seed, *FAST_ARGS[command]])
        assert exit_info.value.code == 2
        assert f"seed {seed} is outside [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / str(seed)).exists()
    top = 2**64 - 4 if command == "forms-check" else 2**64 - 1
    for seed in (0, top):
        assert run_cli([command, "--out", tmp_path / str(seed), "--seed", seed, *FAST_ARGS[command]]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["0", str(top)])
    if command == "forms-check":
        out = tmp_path / str(top + 1)
        assert run_cli([command, "--out", out, "--seed", top + 1, *FAST_ARGS[command]]) == 2
        assert f"last seed {2**64} (--seed + seeds - 1) is outside [0, 2**64)" in capsys.readouterr().err
        assert not (out / "forms_check.csv").exists()


BAD_INPUTS = [  # command, space-separated overrides, output file, exit code[, --out under tmp_path]
    ("lightcone", "c=0", "lightcone.csv", 2),
    ("lightcone", "c=-1", "lightcone.csv", 2),
    ("forms-check", "seeds=-5", "forms_check.csv", 2),
    ("forms-check", "seeds=0", "forms_check.csv", 2),
    ("lightcone", "c=abc", "lightcone.csv", 2),
    ("lightcone", "points=[[1,2,3]]", "lightcone.csv", 2),
    ("forms-check", "seeds=abc", "forms_check.csv", 2),
    ("forms-check", "seeds=2.5", "forms_check.csv", 2),  # not truncated to 2
    ("forms-check", "dimension=5", "forms_check.csv", 2),
    ("forms-check", "dimension=1", "forms_check.csv", 2),
    ("forms-check", "degree=4", "forms_check.csv", 2),
    ("forms-check", "degree=-1", "forms_check.csv", 2),
    ("metric", "points", "metric.csv", 2),  # a --set without "="
    ("cartan", "samples=abc", "cartan.csv", 2),
    ("cartan", "samples=-3", "cartan.csv", 2),
    ("metric", "points=[[1,2]]", "metric.csv", 2),
    ("metric", "probe=[1,2]", "metric.csv", 2),
    ("spectrum", 'theta_dot={"start":"a","stop":0.02,"count":2}', "spectrum.csv", 2),
    ("spectrum", "m=[true]", "spectrum.csv", 2),  # not read as m = 1
    ("spectrum", 'grad_norm={"start":0,"stop":0.1,"count":2.5}', "spectrum.csv", 2),
    ("spectrum", "box.spatial=[[0,1]]", "spectrum.csv", 2),  # three intervals needed
    ("spectrum", "box.t1=0.0", "spectrum.csv", 2),  # t1 == t0: an empty time interval
    ("spectrum", "box.spatial=[[0,1],[1,1],[0,1]]", "spectrum.csv", 2),  # empty spatial interval
    ("metric", "theta_grad=[0,1e308,0,0]", "metric.csv", 3),  # overflows once squared
    ("spectrum", "theta_dot=[1e308] grad_norm=[1e308]", "spectrum.csv", 3),
    ("spectrum", "theta_dot=[1e-100] grad_norm=[1e140]", "spectrum.csv", 3),
    ("lightcone", "c=1e-200", "lightcone.csv", 3),  # c * c underflows to 0
    ("lightcone", "c=1e-320", "lightcone.csv", 3),
    ("spectrum", 'grad_norm={"start":0,"stop":1e308,"count":3}', "spectrum.csv", 3),
    ("spectrum", "box.t1=1e308 m=[2.0]", "spectrum.csv", 3),  # the kernel phase overflows
    ("spectrum", "m=1e300", "spectrum.csv", 3),  # m * m overflows: nan roots
    ("spectrum", "m=[1e200]", "spectrum.csv", 3),
    ("lightcone", "c=1e300", "lightcone.csv", 3),  # -inf velocities, nan residuals
    ("lightcone", "theta_dot=1e300", "lightcone.csv", 3),
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
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not (tmp_path / csv_name).exists()
    if code == 3:  # the message names the command, for an arithmetic fault or a non-finite cell
        assert f"{command}: float overflow or underflow" in err or f"{csv_name} would hold" in err


any_double = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# a tie, a carry, a subnormal, nan and -0.0 are left to ``%``; 1e-100 is fast, with three exponent digits
MIXED = [1234567890123.5, 9.9999999999995e-5, 5e-324, float("nan"), -0.0, 1e-100]


def test_fast_formatter_cells_equal_cpython():
    """Every cell the snapshot formatter's fast path takes is CPython's ``%.12e``:
    over 2e6 random 64-bit patterns, 1e6 lognormal and wave-like values and the
    edge families of ``fmt_sweep`` (``python tests/fmt_sweep.py`` runs 1e7)."""
    rng = np.random.default_rng(5)
    assert fast_cells_match(edge_values(rng))[0]
    values = random_values(rng, 2 * 10**6)
    equal, fast = fast_cells_match(values)
    assert equal and fast > 0.9 * len(values)
    _, fast = _cells(np.array(MIXED))
    assert fast.tolist() == [False] * 5 + [True]


def test_a_default_stride_1_pass_falls_back_on_few_cells():
    """The fast path proves the rounding of all but a few cells of a real pass,
    so it cannot silently leave every cell to ``%``."""
    cfg = DEFAULTS["simulate"]
    grid = SimGrid(**{**cfg["grid"], "snapshot_stride": 1})
    simulate_time_domain(
        grid, cfg["m"], cfg["theta_dot"], cfg["theta_prime"], initial=WavePacket(**cfg["packet"])
    )
    _, fast = _cells(grid.snapshots.view(np.float64).ravel())
    assert 1 - fast.mean() < 0.02


@given(
    t=any_double,
    xs=st.lists(any_double, min_size=1, max_size=6),
    parts=st.lists(any_double, min_size=12, max_size=12),
)
@example(t=-0.0, xs=[5e-324, -5e-324], parts=[float("nan"), float("inf"), float("-inf"), 0.0,
                                            -0.0, 1.7976931348623157e308] * 2)
# fast-path and spliced cells side by side (``MIXED`` says which is which), both ways round
@example(t=0.25, xs=[-1.0, 2.0, 3e-7, -4e100, 5.0, 6.5], parts=MIXED + [-v for v in MIXED[::-1]])
@example(t=1e-100, xs=[1e-100] * 6, parts=MIXED[::-1] + [0.1] * 6)
def test_snapshot_block_cells_equal_fmt(t, xs, parts):
    snap = np.empty((1, len(xs)), dtype=np.complex128)
    snap.real = parts[: len(xs)]
    snap.imag = parts[6 : 6 + len(xs)]
    (block,) = _snapshot_blocks(np.array([t]), np.array(xs), snap)
    block = block.decode("ascii")
    want = [[fmt(t), fmt(x), fmt(v.real), fmt(v.imag)] for x, v in zip(xs, snap[0])]
    assert [line.split(",") for line in block.splitlines()] == want
    assert block.endswith("\n")


# snapshots of the default grid's 512 points in one block
SNAPSHOTS_PER_BLOCK = max(1, BLOCK_VALUES // 1024)


@pytest.mark.parametrize(
    "n_x, count",
    [(512, c) for c in (1, SNAPSHOTS_PER_BLOCK - 1, SNAPSHOTS_PER_BLOCK, SNAPSHOTS_PER_BLOCK + 1,
                        2 * SNAPSHOTS_PER_BLOCK + 1)]
    # one snapshot of more than BLOCK_VALUES values is a block of its own
    + [(BLOCK_VALUES // 2 + 1, 3)],
)
def test_snapshot_blocks_hold_whole_snapshots(n_x, count, tmp_path):
    """Blocks of whole snapshots, the last one partial, write the file built
    cell by cell from ``fmt``, over values of every class of double."""
    rng = np.random.default_rng(count)
    times = np.arange(count) * 0.3
    xs = rng.uniform(-100.0, 100.0, n_x)
    snaps = random_values(rng, 2 * n_x * count)[: 2 * n_x * count].view(np.complex128).reshape(count, n_x)
    blocks = list(_snapshot_blocks(times, xs, snaps))
    per_block = max(1, BLOCK_VALUES // (2 * n_x))
    assert len(blocks) == -(-count // per_block)
    assert [b.count(b"\n") for b in blocks[:-1]] == [per_block * n_x] * (len(blocks) - 1)
    path = write_csv(tmp_path / "snapshots.csv", "t,x,re_phi,im_phi", blocks)
    _assert_same_lines(path.read_text(), _snapshot_csv_by_fmt(times, xs, snaps))


@pytest.mark.parametrize(
    "times",
    [
        [0.0, 1e-101] * 7,  # t cells of 18 and 19 characters
        [1e-101, float("nan"), -0.0, -2.5, float("inf"), 0.3, -1e-300] * 2,  # of 3 to 20
    ],
    ids=["two-widths", "many-widths"],
)
def test_snapshot_columns_are_as_wide_as_their_widest_cell(times, tmp_path):
    """``t`` and ``x`` cells of several widths, negative ``x`` values among
    them, in blocks of whole snapshots, write the file built from ``fmt``."""
    rng = np.random.default_rng(len(times))
    times = np.array(times)
    xs = np.linspace(-300.0, 300.0, 601)  # x cells of 19 and 20 characters, a comma included
    xs[1] = -5e-324  # and of 21
    size = 2 * xs.size * len(times)
    snaps = random_values(rng, size)[:size].view(np.complex128).reshape(len(times), -1)
    blocks = list(_snapshot_blocks(times, xs, snaps))
    assert len(blocks) == -(-len(times) // (BLOCK_VALUES // (2 * xs.size))) > 2
    path = write_csv(tmp_path / "snapshots.csv", "t,x,re_phi,im_phi", blocks)
    _assert_same_lines(path.read_text(), _snapshot_csv_by_fmt(times, xs, snaps))


def _formatting_peak(count: int) -> int:
    """Peak bytes traced while the snapshot blocks of ``count`` snapshots of
    8 points are built and dropped one by one."""
    rng = np.random.default_rng(count)
    snaps = rng.standard_normal((count, 16)).view(np.complex128)
    times, xs = np.arange(count) * 0.01, np.linspace(0.0, 40.0, 8, endpoint=False)
    tracemalloc.start()
    try:
        for block in _snapshot_blocks(times, xs, snaps):
            del block
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_snapshot_formatting_memory_does_not_grow_with_the_snapshots():
    """Ten times the snapshots of a small grid take no more formatting
    memory, beyond a margin: only one block's cells are held at a time."""
    assert _formatting_peak(20_000) < 1.2 * _formatting_peak(2_000)


def _assert_same_lines(got: str, want: str):
    """``got == want``, reporting the first differing line: pytest's own diff
    of two files of thousands of rows runs for minutes."""
    got, want = got.splitlines(True), want.splitlines(True)
    diff = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    assert len(got) == len(want) == diff, f"line {diff}: {got[diff:diff + 1]} != {want[diff:diff + 1]}"


def _snapshot_csv_by_fmt(times, xs, snapshots) -> str:
    """The snapshot CSV's text, built row by row from ``fmt``."""
    rows = [
        [fmt(t), fmt(x), fmt(v.real), fmt(v.imag)]
        for t, snap in zip(times, snapshots)
        for x, v in zip(xs, snap)
    ]
    return SCHEMA_LINE + "\nt,x,re_phi,im_phi\n" + "".join(",".join(r) + "\n" for r in rows)


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
    want = _snapshot_csv_by_fmt(grid.times, grid.xs(), grid.snapshots)
    _assert_same_lines((tmp_path / "simulate_snapshots.csv").read_text(), want)


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
    """A command and a drawn value for each of 1-4 of its distinct keys, none
    nested in another; size keys take integers up to 64."""
    command = draw(st.sampled_from(list(FAST_ARGS)))
    own = [key for c, key in CONFIG_KEYS if c == command]
    keys = draw(st.lists(st.sampled_from(own), min_size=1, max_size=4, unique=True))
    keys = [k for k in keys if not any(k.startswith(f"{other}.") for other in keys)]
    return command, {
        key: draw(_json_values(64 if SIZE_KEYS.intersection(key.split(".")) else None)) for key in keys
    }


def _nonfinite_cells(out: Path) -> list:
    """The cells of the CSVs in ``out`` that read as ``nan`` or ``inf``; in
    ``forms_check.csv`` a ``residual_grade`` of ``inf`` means an exact zero."""
    bad = []
    for path in out.glob("*.csv"):
        _, header, *rows = path.read_text().splitlines()
        for row in rows:
            for column, cell in zip(header.split(","), row.split(",")):
                if column not in ("identity", "residual_grade") and not math.isfinite(float(cell)):
                    bad.append((path.name, column, cell))
    return bad


def _max_modulus(out: Path) -> float:
    """The largest |phi| in the snapshots a ``simulate`` run wrote to ``out``."""
    _, _, re_phi, im_phi = np.loadtxt(out / "simulate_snapshots.csv", delimiter=",", skiprows=2, ndmin=2).T
    return float(np.max(np.hypot(re_phi, im_phi)))


@settings(deadline=None, max_examples=60)
@given(case=_config_case())
@example(case=("lightcone", {"c": 1e300}))
@example(case=("spectrum", {"m": [1e300]}))
# float ``*`` overflows to ``inf`` without raising, and a sum of infinities is ``nan``
@example(case=("metric", {
    "points": [[0.0, 0.0, 0.0, 1e137]],
    "theta_grad": [0.0, 1e129, 0.0, 0.0],
    "probe": [0.0, 0.0, 0.0, 0.0],
}))
def test_any_config_value_keeps_the_exit_code_contract(case):
    """Drawn values, by flag or in a document, exit 0, 2, 3 or 4 and raise
    nothing, both ways with the same code and message; a run that exits 0
    writes only finite cells, and a simulate run no |phi| over the probe's
    threshold, and any other run leaves its ``--out`` empty."""
    command, values = case
    doc = {}
    for key, value in values.items():
        *parents, leaf = key.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        fast, codes = FAST_ARGS[command], (0, 2, 3, 4)
        sets = [a for key, value in values.items() for a in ("--set", f"{key}={json.dumps(value)}")]
        # the document's values must not be overridden by the same keys' fast flags,
        # and the flags run sets the drawn values first, as the document run reads them
        doc_fast = [a for s in fast[1::2] if s.partition("=")[0] not in values for a in ("--set", s)]
        runs = []
        for tag, args in (("flags", [*sets, *doc_fast]), ("doc", ["--config", cfg_path, *doc_fast])):
            out, err = Path(tmp) / tag, io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run_cli([command, "--out", out, *args])
            runs.append((code, err.getvalue()))
            assert code in codes
            assert code != 0 or _nonfinite_cells(out) == []
            assert code != 0 or command != "simulate" or _max_modulus(out) <= AMPLITUDE_ABORT
            assert code == 0 or not out.exists() or not any(out.iterdir())
        assert runs[0] == runs[1]

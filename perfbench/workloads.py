"""The four workloads: their inputs, their units of work and their checks.

Each workload yields *groups* of calls.  A group is the smallest piece the
timed loop never splits (one seed, one explicit+implicit simulation pair, one
dump pass, one shell command); each call in it is timed on its own.  A call's
``post`` runs outside the timed region: it checks the call's output and
returns the stratum the call belongs to.  Any exception or failed check
makes the unit a failed unit; it never stops the run.

Inputs come only from the benchmark seed.  exocalc is imported lazily, so
the set-up probe times ``import exocalc.cli`` itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Call:
    label: str
    unit_id: object
    fn: Callable
    post: Callable  # post(result) -> (units, stratum); raises on a failed check
    span: str  # name of the unit span in a traced run


@dataclass
class Context:
    root: Path  # checkout root
    tmp: Path  # scratch directory inside the checkout
    seed: int
    tiny: bool = False
    trace_child: list = field(default_factory=list)  # argv prefix for traced children


def _finite_csv(path: Path, header: str):
    """Check the schema line, the header and that every value is finite."""
    with open(path) as fh:
        require(fh.readline() == "# schema=1\n", f"{path.name}: bad schema line")
        require(fh.readline() == header + "\n", f"{path.name}: bad header")
        for line in fh:
            for cell in line.rstrip("\n").split(","):
                require(math.isfinite(float(cell)), f"{path.name}: non-finite value {cell}")


def _summary_rate(path: Path) -> float:
    _finite_csv(path, "t,log_l2_amplitude,fitted_rate")
    with open(path) as fh:
        rows = list(csv.reader(fh))[2:]
    rates = {row[2] for row in rows}
    require(len(rates) == 1, "fitted_rate differs between summary rows")
    return float(rates.pop())


def _rate_law(rate: float, theta_dot: float):
    want = abs(theta_dot) / 2
    require(abs(abs(rate) - want) <= 0.02 * want, f"fitted rate {rate} vs |theta_dot|/2 = {want}")


# ------------------------------------------------------------- forms-exact


# Share of seeds per (dimension, degree) stratum under forms-check's draw:
# dimension uniform on 2..n_max, degree uniform on 0..min(deg_max, dim-1).
def _forms_weights(n_max: int, deg_max: int) -> dict:
    weights = {}
    dims = range(2, n_max + 1)
    for dim in dims:
        degs = range(0, min(deg_max, dim - 1) + 1)
        for deg in degs:
            weights[f"{dim}/{deg}"] = 1 / len(dims) / len(degs)
    return weights


class FormsExact:
    """forms-check identity batches at dimension 4, degree 3, one seed per call."""

    name = "forms-exact"
    unit = "seed"
    # Python-bound work follows the Fraction part of the reference; seeds
    # differ in cost, so a stratum's time is the mean over its seeds.
    reference_parts = ("fraction",)
    stratum_stat = "mean"
    golden = "tests/fixtures/forms_check_golden.csv"

    def __init__(self, ctx: Context):
        from exocalc import cli

        self.cli, self.ctx = cli, ctx
        self.cfg = cli.load_config("forms-check", None, ["seeds=1", "dimension=4", "degree=3"])
        self.weights = _forms_weights(4, 3)
        self.checked_rows: dict = {}

    def groups(self):
        seed = self.ctx.seed
        while True:
            yield [Call("seed", seed, self._runner(seed), self._post(seed), "unit.seed")]
            seed += 1

    def _runner(self, seed):
        return lambda: self.cli.forms_check_rows(self.cfg, seed)[1]

    def _post(self, seed):
        def post(rows):
            require(len(rows) == 5, f"seed {seed}: {len(rows)} rows")
            for row in rows:
                require(row[-1] == "1", f"seed {seed}: {row[0]} fails ({','.join(row)})")
            if len(self.checked_rows) < 4 and seed % 8 == 0:
                self.checked_rows[seed] = rows
            return 1, f"{rows[0][2]}/{rows[0][3]}"

        return post

    def final_checks(self):
        checks = [("golden forms-check, seed 42", self._golden)]
        for seed in sorted(self.checked_rows):
            checks.append((f"dense oracle, seed {seed}", self._oracle(seed)))
        return checks

    def _golden(self):
        cfg = self.cli.load_config("forms-check", None, [])
        header, rows = self.cli.forms_check_rows(cfg, 42)
        path = self.cli.write_csv(self.ctx.tmp / "golden" / "forms_check.csv", header, rows)
        require(path.read_bytes() == (self.ctx.root / self.golden).read_bytes(), "golden bytes differ")

    def _oracle(self, seed):
        def check():
            from exocalc.oracles import dense_exotic_d

            _, dense = self.cli.forms_check_rows(self.cfg, seed, d_fn=dense_exotic_d)
            require(dense == self.checked_rows[seed], f"seed {seed}: dense route disagrees")

        return check


# ------------------------------------------------------------- wave-evolve


def _packet_overrides(rng: random.Random, theta_dot: float) -> list:
    return [
        f"theta_dot={theta_dot!r}",
        f"packet.center={rng.uniform(80.0, 120.0)!r}",
        f"packet.width={rng.uniform(10.0, 14.0)!r}",
        f"packet.wavenumber={rng.uniform(0.3, 0.8)!r}",
    ]


class WaveEvolve:
    """simulate with sparse output: a periodic leapfrog plus an implicit x-term leg."""

    name = "wave-evolve"
    unit = "point-step"
    # the leapfrog follows the array part; a call takes most of a second, so
    # the block repeats the part to sample the host over a longer window.
    # Every call of a kind does the same work, so the median rejects a slice
    # the reference misjudged.
    reference_parts = ("array",) * 3
    stratum_stat = "median"

    def __init__(self, ctx: Context):
        from exocalc import cli

        self.cli, self.ctx = cli, ctx
        self.n_t = 256 if ctx.tiny else 4096
        self.n_t_implicit = 60 if ctx.tiny else 600
        self.load_config = lambda sets: cli.load_config("simulate", None, sets)
        self.load_config([])

    def groups(self):
        i = 0
        while True:
            rng = random.Random(self.ctx.seed * 1_000_003 + i)
            theta_dot = rng.choice((-1.0, 1.0)) * rng.uniform(0.015, 0.03)
            explicit = [
                "grid.x_min=0.0", "grid.x_max=200.0", "grid.n_x=4096", "grid.dt=0.04",
                f"grid.n_t={self.n_t}", "grid.bc=\"periodic\"", f"grid.snapshot_stride={self.n_t // 4}",
            ] + _packet_overrides(rng, theta_dot)
            # small box and gradient keep the x-term inside its validity scale
            implicit = [
                "grid.x_min=0.0", "grid.x_max=4.0", "grid.n_x=512", "grid.dt=0.005",
                f"grid.n_t={self.n_t_implicit}", "grid.bc=\"dirichlet\"",
                f"grid.snapshot_stride={self.n_t_implicit // 6}", "include_x_term=true",
                f"theta_dot={rng.uniform(0.01, 0.02)!r}", "packet.center=2.0",
                "packet.width=0.4", f"packet.wavenumber={rng.uniform(2.0, 4.0)!r}",
            ]
            yield [
                self._call(f"explicit-{i}", explicit, 4096 * self.n_t, theta_dot),
                self._call(f"implicit-{i}", implicit, 512 * self.n_t_implicit, None),
            ]
            i += 1

    def _call(self, label, sets, units, theta_dot):
        out = self.ctx.tmp / label

        def run():
            return self.cli.simulate_outputs(self.load_config(sets), out, False)

        def post(written):
            try:
                _finite_csv(out / "simulate_snapshots.csv", "t,x,re_phi,im_phi")
                rate = _summary_rate(out / "simulate_summary.csv")
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if theta_dot is not None:
                _rate_law(rate, theta_dot)
            return units, label.split("-")[0]

        return Call(label, label, run, post, "unit.simulation")

    def final_checks(self):
        return []


# --------------------------------------------------------------- wave-dump


# every this many passes, a pass's values are compared one by one
FULL_VERIFY_EVERY = 8


class WaveDump:
    """simulate on the default 512-point grid writing every step's snapshot."""

    name = "wave-dump"
    unit = "row"
    reference_parts = ("fraction",)  # formatting rows is Python-bound
    stratum_stat = "median"

    def __init__(self, ctx: Context):
        from exocalc import cli

        self.cli, self.ctx = cli, ctx
        self.n_t = 128 if ctx.tiny else 160
        self.out = ctx.tmp / "dump"
        cli.load_config("simulate", None, [])

    def groups(self):
        i = 0
        while True:
            rng = random.Random(self.ctx.seed * 1_000_003 + i)
            theta_dot = rng.choice((-1.0, 1.0)) * rng.uniform(0.015, 0.03)
            sets = [f"grid.n_t={self.n_t}", "grid.snapshot_stride=1"] + _packet_overrides(rng, theta_dot)
            out = self.out / f"pass-{i}"
            yield [Call(f"pass-{i}", i, self._runner(sets, out), self._post(sets, theta_dot, out, i), "unit.pass")]
            i += 1

    def _runner(self, sets, out):
        return lambda: self.cli.simulate_outputs(self.cli.load_config("simulate", None, sets), out, False)

    def _post(self, sets, theta_dot, out, i):
        def post(written):
            try:
                rows = self._verify(sets, theta_dot, out, full=i % FULL_VERIFY_EVERY == 0)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            return rows, "pass"

        return post

    def _verify(self, sets, theta_dot, out: Path, full: bool) -> int:
        """Check layout, row count and rate law; on ``full`` passes also re-simulate
        and compare every written value to 12 significant digits."""
        from exocalc.pde import SimGrid, WavePacket, simulate_time_domain

        cfg = self.cli.load_config("simulate", None, sets)
        g, pk = cfg["grid"], cfg["packet"]
        grid = SimGrid(g["x_min"], g["x_max"], g["n_x"], g["dt"], g["n_t"], g["bc"], g["snapshot_stride"])
        simulate_time_domain(
            grid, cfg["m"], cfg["theta_dot"], cfg["theta_prime"],
            initial=WavePacket(pk["center"], pk["width"], pk["wavenumber"], pk["amplitude"]),
        )
        expected_rows = grid.snapshots.size
        path = out / "simulate_snapshots.csv"
        with open(path) as fh:
            require(fh.readline() == "# schema=1\n", "bad schema line")
            require(fh.readline() == "t,x,re_phi,im_phi\n", "bad header")
            if full:
                rows = self._compare_values(fh, grid)
            else:
                rows = sum(1 for _ in fh)
        require(rows == expected_rows, f"{rows} snapshot rows, expected {expected_rows}")
        _rate_law(_summary_rate(out / "simulate_summary.csv"), theta_dot)
        return rows

    @staticmethod
    def _compare_values(fh, grid) -> int:
        rows = 0
        xs = grid.xs()
        for t, snap in zip(grid.times, grid.snapshots):
            for x, val in zip(xs, snap):
                line = fh.readline()
                require(line != "", f"snapshot file ends after {rows} rows")
                got = [float(c) for c in line.split(",")]
                for g_val, want in zip(got, (t, x, val.real, val.imag)):
                    require(abs(g_val - want) <= 1e-12 * abs(want), f"row {rows}: {g_val} != {want}")
                rows += 1
        return rows + sum(1 for _ in fh)

    def final_checks(self):
        return []


# ----------------------------------------------------------------- session


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Session:
    """One user's shell session: six commands, each a fresh ``python -m exocalc``."""

    name = "session"
    unit = "command"
    # each command is mostly interpreter start and imports
    reference_parts = ("spawn",)
    stratum_stat = "median"
    min_groups = 6  # always one whole session, so every command is measured

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.peak_kb = 0
        samples = 500 if ctx.tiny else 20000
        self.commands = [
            ("metric", [], self._digest("metric.csv")),
            ("lightcone", [], self._digest("lightcone.csv")),
            ("spectrum", ["--seed", "42"], self._golden("spectrum.csv", "spectrum_golden.csv")),
            ("cartan", ["--set", f"samples={samples}", "--seed", str(ctx.seed)], self._cartan(samples)),
            ("forms-check", ["--seed", "42"], self._golden("forms_check.csv", "forms_check_golden.csv")),
            ("simulate", [], self._simulate),
        ]

    def argv(self, name, extra, out: Path) -> list:
        prefix = self.ctx.trace_child or [sys.executable, "-m", "exocalc"]
        return prefix + [name, "--out", str(out)] + extra

    def run_command(self, argv: list, tag: str):
        """Run one command; return (exit code, stderr text, max RSS in KiB)."""
        err_path = self.ctx.tmp / f"{tag}.stderr"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.ctx.root, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, err_path.read_text(errors="replace"), usage.ru_maxrss

    def groups(self):
        i = 0
        while True:
            for name, extra, check in self.commands:
                out = self.ctx.tmp / f"session-{name}-{i}"
                yield [Call(name, f"{name}-{i}", self._runner(name, extra, out), self._post(check, out, name),
                            "unit.command")]
            i += 1

    def _runner(self, name, extra, out):
        def run():
            code, err, rss_kb = self.run_command(self.argv(name, extra, out), name)
            self.peak_kb = max(self.peak_kb, rss_kb)
            require(code == 0, f"{name} exited {code}: {err.strip()[-300:]}")
            require("Traceback" not in err, f"{name} printed a traceback")
            return out

        return run

    def _post(self, check, out, name):
        def post(result):
            try:
                check(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            return 1, name

        return post

    def _digest(self, filename):
        def check(out):
            require(_sha256(out / filename) == EXPECTED["digests"][filename], f"{filename} digest differs")

        return check

    def _golden(self, filename, golden):
        def check(out):
            want = (self.ctx.root / "tests" / "fixtures" / golden).read_bytes()
            require((out / filename).read_bytes() == want, f"{filename} differs from {golden}")

        return check

    def _cartan(self, samples):
        tol = EXPECTED["cartan_tolerance"]

        def check(out):
            with open(out / "cartan.csv") as fh:
                rows = list(csv.reader(fh))[2:]
            require(len(rows) == samples, f"cartan wrote {len(rows)} rows")
            for row in rows:
                for name, cell in zip(("roundtrip", "nullity", "det"), row[1:]):
                    require(float(cell) <= tol[name], f"cartan row {row[0]}: {name} residual {cell}")

        return check

    def _simulate(self, out):
        _finite_csv(out / "simulate_snapshots.csv", "t,x,re_phi,im_phi")
        _rate_law(_summary_rate(out / "simulate_summary.csv"), 0.02)

    def final_checks(self):
        return []


WORKLOADS = {cls.name: cls for cls in (FormsExact, WaveEvolve, WaveDump, Session)}

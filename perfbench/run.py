"""exocalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
Workloads (why each was chosen is in BENCHMARK.json and layers.json):

    forms-exact  forms-check identities, dimension 4, degree 3, in-process
    wave-evolve  simulate, periodic leapfrog n_x=4096 plus an implicit x-term leg
    wave-dump    simulate on the default grid writing every step's snapshot
    session      six fresh ``python -m exocalc`` commands, one after another

Every run is one process at a time with one unit of work in flight (closed
loop, one client).  With ``--trace 0`` the last line of standard output is
the end-to-end result: ``work_per_s`` (units of work per host-normalised
second, see reference.py), ``setup_s`` (median over fresh processes of the
host-normalised time from interpreter start until the first unit is done)
and ``peak_rss_mb``.  With ``--trace 1`` it is the per-layer result of a separate
traced run.  Failed units are counted in ``attempted``/``failed``; the line
before the result is a JSON report with the machine block, the raw seconds,
the reference speed factors and the derived, ungated wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_block, speed_factor

HERE = Path(__file__).resolve().parent
SPAWN = ("spawn",)
WORKLOADS = ("forms-exact", "wave-evolve", "wave-dump", "session")
# Thread pins, set before any process imports numpy: the OpenBLAS build here
# starts up to 64 threads, on 2 cores.  EXOCALC_THREADS stays unset.
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4
TRACE_PROBES = 3
WORKER_TIMEOUT_S = 150
NOT_TIMED = json.loads((HERE / "layers.json").read_text())["not_on_timed_path"]


class HarnessError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_probe(root: Path, env: dict, workload: str, seed: int, tmp: Path, tiny: bool) -> dict:
    """One fresh process up to the end of its first unit of work."""
    out = tmp / f"probe-{time.monotonic_ns()}"
    out.mkdir(parents=True)
    if workload == "session":
        argv = [sys.executable, "-m", "exocalc", "metric", "--out", str(out)]
    else:
        argv = [sys.executable, str(HERE / "child.py"), "probe", workload, str(seed), str(out)]
        argv += ["--tiny"] if tiny else []
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=60)
    end = time.monotonic()
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        return {"ok": False, "error": proc.stderr.strip()[-300:]}
    if workload == "session":
        return {"ok": True, "setup_s": end - start}
    phases = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"ok": True, "setup_s": phases["done_at"] - start, **phases}


def run_worker(root: Path, env: dict, args, tmp: Path) -> dict:
    out = tmp / "worker.json"
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp), "--out", str(out),
    ] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_probes(root, env, args, tmp) -> list:
    """Set-up probes, each normalised by spawn references run around it.

    Start-up is process creation and module loading, which the in-process
    reference parts do not track; a fresh interpreter importing numpy does.
    """
    # an untimed first probe fills the bytecode caches of a fresh checkout
    run_probe(root, env, args.workload, args.seed, tmp, args.tiny)
    before = reference_block(SPAWN)
    probes = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        probe = run_probe(root, env, args.workload, args.seed, tmp, args.tiny)
        after = reference_block(SPAWN)
        if probe["ok"]:
            probe["speed_factor"] = speed_factor([before, after], SPAWN)
        probes.append(probe)
        before = after
    return probes


def end_to_end(root, env, args, tmp) -> tuple:
    probes = timed_probes(root, env, args, tmp)
    raw_setup = [p["setup_s"] for p in probes if p["ok"]]
    setup = [p["setup_s"] * p["speed_factor"] for p in probes if p["ok"]]
    worker = run_worker(root, env, args, tmp)
    attempted = worker["attempted"] + len(probes)
    failed = worker["failed"] + sum(1 for p in probes if not p["ok"])
    notes = worker["failure_notes"] + [p["error"] for p in probes if not p["ok"]]
    setup_s = statistics.median(setup) if setup else 0.0
    work_per_s = worker["work_per_s"]
    units = worker["timed"]["units"]
    metrics = {
        "work_per_s": metric(work_per_s, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(worker["peak_rss_mb"], "MB"),
    }
    report = {
        "workload": args.workload,
        "unit": worker["unit"],
        "machine": worker["machine"],
        "setup_raw_s": raw_setup,
        "setup_speed_factors": [p["speed_factor"] for p in probes if p["ok"]],
        "timed": worker["timed"],
        "fail_frac": failed / attempted,
        "derived_wall_s": setup_s + (units / work_per_s if work_per_s else 0.0),
        "failure_notes": notes,
    }
    return metrics, attempted, failed, report


def traced(root, env, args, tmp) -> tuple:
    import tracing

    probes = []
    if args.workload != "session":
        count = 1 if args.tiny else TRACE_PROBES
        probes = [run_probe(root, env, args.workload, args.seed, tmp, args.tiny) for _ in range(count)]
    worker = run_worker(root, env, args, tmp)
    good = [p for p in probes if p["ok"]] + worker["child_probes"]
    layers, absent = tracing.layer_metrics(worker["trace"], good)
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    metrics["trace.overhead_frac"] = metric(worker["overhead_frac"], "ratio")
    attempted = worker["attempted"] + len(probes)
    failed = worker["failed"] + sum(1 for p in probes if not p["ok"])
    report = {
        "workload": args.workload,
        "unit": worker["unit"],
        "machine": worker["machine"],
        "traced": worker["timed"],
        "untraced": worker["untraced"],
        "fail_frac": failed / attempted,
        "absent": absent,
        "not_on_timed_path": NOT_TIMED,
        "failure_notes": worker["failure_notes"] + [p["error"] for p in probes if not p["ok"]],
    }
    return metrics, attempted, failed, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-check")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "exocalc" / "cli.py").is_file():
        print("perfbench: run from the root of an exocalc checkout (no src/exocalc here)",
              file=sys.stderr)
        return 2
    os.environ.update(PINS)
    os.environ.pop("EXOCALC_THREADS", None)
    env = child_env(root)
    tmp = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        phase = traced if args.trace else end_to_end
        metrics, attempted, failed, report = phase(root, env, args, tmp)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

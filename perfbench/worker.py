"""One workload's measured process: timed slices bracketed by the reference block.

Usage (started by run.py, with the thread pins and ``PYTHONPATH=src`` set):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --tmp DIR --out RESULT.json [--tiny]

Untraced, it runs groups of calls for ``--seconds``.  The work is cut into
slices of about ``SLICE_S``; the reference block runs between slices, and a
slice's time is normalised by the two blocks around it.  Checks
run after the timed loop, so they stay outside the timed region and out of
the peak resident set it reports.

Traced, it runs a fixed number of groups twice on the same inputs: once
untraced and once with the tracing wrappers installed.  The work is fixed so
that per-layer counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import reference_block, speed_factor

SLICE_S = 0.4
TINY_SLICE_S = 0.05
# groups run by the traced comparison, per workload (full size, tiny size)
TRACE_GROUPS = {"forms-exact": (120, 4), "wave-evolve": (3, 1), "wave-dump": (3, 1), "session": (6, 6)}
MAX_FAILURE_NOTES = 5


class Recorder:
    def __init__(self):
        self.calls: list = []  # (slice index, call, result, raw seconds, error)
        self.slices: list = []  # (reference before, reference after)
        self.notes: list = []

    def note(self, what: str, exc: BaseException):
        if len(self.notes) < MAX_FAILURE_NOTES:
            text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.notes.append(f"{what}: {text}")


def run_slices(workload, seconds=None, groups=None, slice_s=SLICE_S, tracer=None) -> Recorder:
    """Run groups until ``seconds`` pass or ``groups`` groups are done."""
    rec = Recorder()
    source = workload.groups()
    parts = workload.reference_parts
    clock = time.perf_counter
    ref_before = reference_block(parts)
    deadline = clock() + seconds if seconds is not None else None
    min_groups = getattr(workload, "min_groups", 1)
    done = 0
    finished = False
    while not finished:
        start = clock()
        index = len(rec.slices)
        while True:
            for call in next(source):
                t0 = clock()
                try:
                    if tracer is None:
                        result = call.fn()
                    else:
                        result = tracer.run_unit(call.span, call.unit_id, call.fn)
                    error = None
                except Exception as exc:  # a failed unit is counted, never fatal
                    result, error = None, exc
                rec.calls.append((index, call, result, clock() - t0, error))
            done += 1
            now = clock()
            if groups is not None:
                finished = done >= groups
            else:
                finished = now >= deadline and done >= min_groups
            if finished or now - start >= slice_s:
                break
        ref_after = reference_block(parts)
        rec.slices.append((ref_before, ref_after))
        ref_before = ref_after
    return rec


def check_calls(rec: Recorder, parts: tuple) -> list:
    """Run each call's checks; return (call, units, stratum, normalised s, raw s, ok)."""
    rows = []
    for index, call, result, raw_s, error in rec.calls:
        norm_s = raw_s * speed_factor(rec.slices[index], parts)
        units, stratum, ok = 0, None, error is None
        if error is not None:
            rec.note(f"{call.label} ({call.unit_id})", error)
        else:
            try:
                units, stratum = call.post(result)
            except Exception as exc:
                ok = False
                rec.note(f"check {call.label} ({call.unit_id})", exc)
        rows.append((call, units, stratum, norm_s, raw_s, ok))
    return rows


def work_rate(rows: list, weights: dict | None, stat: str) -> float:
    """Units per normalised second over the successful calls.

    Calls are grouped in strata (a forms seed's dimension/degree, a
    simulation's kind, a command); the rate is the weighted mean units over
    the weighted mean or median seconds (``stat``), so the mix of strata a
    seed happens to draw does not move the figure.  Without weights every
    stratum seen counts once.
    """
    centre = statistics.fmean if stat == "mean" else statistics.median
    strata: dict = {}
    for call, units, stratum, norm_s, raw_s, ok in rows:
        if ok:
            strata.setdefault(stratum, []).append((units, norm_s))
    if not strata:
        return 0.0
    if weights is None:
        weights = dict.fromkeys(strata, 1.0)
    total_w = sum(weights.get(s, 0.0) for s in strata) or 1.0
    units = secs = 0.0
    for stratum, samples in strata.items():
        w = weights.get(stratum, 0.0) / total_w
        units += w * statistics.fmean(u for u, _ in samples)
        secs += w * centre([t for _, t in samples])
    return units / secs if secs else 0.0


def run_final_checks(workload, rec: Recorder) -> tuple:
    attempted = failed = 0
    for name, check in workload.final_checks():
        attempted += 1
        try:
            check()
        except Exception as exc:
            failed += 1
            rec.note(name, exc)
    return attempted, failed


def machine_block() -> dict:
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "EXOCALC_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "pins": {k: os.environ.get(k, "unset") for k in pins},
    }


def summarise(rec: Recorder, rows: list, parts: tuple) -> dict:
    speeds = [speed_factor(blocks, parts) for blocks in rec.slices]
    return {
        "calls": len(rows),
        "failed": sum(1 for r in rows if not r[5]),
        "units": sum(r[1] for r in rows),
        "raw_s": sum(r[4] for r in rows),
        "norm_s": sum(r[3] for r in rows),
        "slices": len(rec.slices),
        "speed_factor_median": statistics.median(speeds),
        "speed_factor_min": min(speeds),
        "speed_factor_max": max(speeds),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import exocalc.cli  # noqa: F401  (fail here, not mid-run, if the source is missing)
    from workloads import WORKLOADS, Context

    root = Path.cwd()
    tmp = Path(args.tmp)
    ctx = Context(root=root, tmp=tmp, seed=args.seed, tiny=args.tiny)
    workload = WORKLOADS[args.workload](ctx)
    weights = getattr(workload, "weights", None)
    parts = workload.reference_parts
    slice_s = TINY_SLICE_S if args.tiny else SLICE_S
    out: dict = {"workload": args.workload, "unit": workload.unit, "machine": machine_block()}

    if not args.trace:
        if args.workload != "session":
            warm = run_slices(workload, groups=1, slice_s=slice_s)
            check_calls(warm, parts)
        rec = run_slices(workload, seconds=args.seconds, slice_s=slice_s)
        if args.workload == "session":
            peak_kb = workload.peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rows = check_calls(rec, parts)
        out["work_per_s"] = work_rate(rows, weights, workload.stratum_stat)
        out["peak_rss_mb"] = peak_kb / 1024
        out["timed"] = summarise(rec, rows, parts)
    else:
        import tracing

        n_groups = TRACE_GROUPS[args.workload][1 if args.tiny else 0]
        plain = run_slices(workload, groups=n_groups, slice_s=slice_s)
        plain_rows = check_calls(plain, parts)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        trace_dir = tmp / "child-traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        child = Path(__file__).resolve().parent / "child.py"
        ctx.trace_child = [sys.executable, str(child), "trace", str(trace_dir)]
        rec = run_slices(workload, groups=n_groups, slice_s=slice_s, tracer=tracer)
        rows = check_calls(rec, parts)
        snapshots = [tracer.snapshot()]
        probes = []
        for path in sorted(trace_dir.glob("*.json")):
            snap = json.loads(path.read_text())
            probes.append(snap.pop("probe"))
            snapshots.append(snap)
        out["trace"] = tracing.merge(snapshots)
        out["child_probes"] = probes
        plain_s = sum(r[3] for r in plain_rows)
        traced_s = sum(r[3] for r in rows)
        out["overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
        out["timed"] = summarise(rec, rows, parts)
        out["untraced"] = summarise(plain, plain_rows, parts)
        rows = plain_rows + rows
        rec.notes = plain.notes + rec.notes

    attempted, failed = run_final_checks(workload, rec)
    out["attempted"] = len(rows) + attempted
    out["failed"] = sum(1 for r in rows if not r[5]) + failed
    out["failure_notes"] = rec.notes
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-process entry points started by the benchmark.

    python3 perfbench/child.py probe WORKLOAD SEED TMP [--tiny]
        Set-up probe: import exocalc.cli, load the workload's config and run
        its first unit, then print the phase times and the monotonic clock
        reading at which the unit was done as JSON.

    python3 perfbench/child.py trace TRACE_DIR EXOCALC_ARGS...
        One traced shell command: install the tracing wrappers, run
        ``exocalc.cli.main`` and write the trace to TRACE_DIR/<pid>.json.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def probe(workload: str, seed: int, tmp: str, tiny: bool) -> int:
    start = time.perf_counter()
    import exocalc.cli  # noqa: F401

    imported = time.perf_counter()
    from workloads import WORKLOADS, Context

    ctx = Context(root=Path.cwd(), tmp=Path(tmp), seed=seed, tiny=tiny)
    t0 = time.perf_counter()
    wl = WORKLOADS[workload](ctx)
    configured = time.perf_counter()
    for call in next(wl.groups()):
        call.fn()
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "config_s": configured - t0,
        "unit_s": done - configured,
        "done_at": time.monotonic(),
    }))
    return 0


def trace(trace_dir: str, argv: list) -> int:
    start = time.perf_counter()
    import exocalc.cli as cli

    imported = time.perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = tracer.run_unit("unit.command", argv[0], cli.main, argv)
    finally:
        snap = tracer.snapshot()
        configs = [s[5] for s in snap["spans"] if s[2] == "cli.load_config"]
        snap["probe"] = {"import_s": imported - start, "config_s": sum(configs)}
        Path(trace_dir, f"{os.getpid()}.json").write_text(json.dumps(snap))
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        sys.exit(probe(rest[0], int(rest[1]), rest[2], "--tiny" in rest[3:]))
    sys.exit(trace(rest[0], rest[1:]))

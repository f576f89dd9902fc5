"""Self-check of the benchmark: every workload once at tiny size, in seconds.

    python3 perfbench/selfcheck.py

Run from the root of an exocalc checkout.  It validates BENCHMARK.json
against the benchmark contract, runs each workload untraced and traced at
tiny size, and checks that the last output line has exactly the result keys,
that every end-to-end (untraced) or per-layer (traced) metric is present
with its unit, that every unit of work passed, and that layers.json maps
every per-layer metric.  Finally it checks that the benchmark refuses to run
in a directory holding only BENCHMARK.json and perfbench/.  Exits 0 when
everything holds.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_contract(bench: dict) -> list:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)}")
    if not 1 <= bench["run_seconds"] <= 60 or not isinstance(bench["run_seconds"], int):
        errors.append("run_seconds out of range")
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    names = []
    for w in bench["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: bad entry")
    for section, keys_wanted, limit in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 16),
        ("per_layer", {"name", "unit", "better"}, 128),
    ):
        entries = bench[section]
        if not 1 <= len(entries) <= limit:
            errors.append(f"{section}: {len(entries)} entries")
        for m in entries:
            names.append(m["name"])
            if set(m) != keys_wanted or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                errors.append(f"{section} {m['name']}: bad entry")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound out of range")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s should carry the largest bound")
    errors += [f"bad or repeated name {n}" for n in names if not NAME.match(n) or names.count(n) > 1]
    if len(json.dumps(bench)) > 64 * 1024:
        errors.append("BENCHMARK.json larger than 64 KiB")
    return errors


def run(argv: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, wanted: list, label: str) -> list:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
        errors.append(f"{label}: failures {report['failure_notes']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{label}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {m['name']} = {got}")
    return errors


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    errors = check_contract(bench)
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = {name for entry in layers["layers"] for name in entry["metrics"]}
    errors += [f"layers.json does not map {m['name']}" for m in bench["per_layer"] if m["name"] not in mapped]
    errors += [f"layers.json has no reason for {w['name']}" for w in bench["workloads"]
               if w["name"] not in layers["workloads"]]

    for w in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            argv = bench["command"] + ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                                       "--trace", str(trace), "--tiny"]
            label = f"{w['name']} trace={trace}"
            found = check_result(run(argv, root), wanted, label)
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found

    bare = root / ".perfbench_tmp" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        name = bench["workloads"][0]["name"]
        proc = run(bench["command"] + ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("benchmark ran without the program's sources")
        print(f"bare directory refused: {'ok' if proc.returncode != 0 else 'FAILED'}")
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)

    for err in errors:
        print("error:", err)
    print("selfcheck", "passed" if not errors else "FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

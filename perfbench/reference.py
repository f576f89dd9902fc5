"""Host-speed reference block.

The host this benchmark runs on changes speed in blocks lasting from a
tenth of a second to several seconds, with no steal time to subtract and no
hardware counters.  After every timed slice of work the worker runs this
fixed block and divides the slice's time by the block's time, so work is
reported in seconds at the block's nominal speed.

The block has three parts, one per kind of work exocalc does, and a
workload runs the parts that track it, repeated until the block is long
enough to sample the host over a window like its own calls:

- ``fraction``: sparse products of small polynomials with tuple exponents and
  ``Fraction`` coefficients, like the exact ring (``poly``, ``forms``) and
  other Python-bound work such as formatting rows;
- ``array``: small numpy array operations, like the leapfrog;
- ``spawn``: a fresh interpreter that imports numpy, like the start of every
  shell command.

It imports nothing from exocalc, and the in-process parts run with the
garbage collector paused so the program's heap cannot slow them.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

# Seconds each part takes at nominal speed: medians of 40 blocks on a
# 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).  Only ratios matter; the
# constants just keep normalised seconds close to wall seconds.
NOMINAL_S = {"fraction": 0.11, "array": 0.085, "spawn": 0.18}

_FRACTION_ROUNDS = 450
_ARRAY_ROUNDS = 1400
_ARRAY_SIZE = 4096


def _fraction_part() -> int:
    kept = 0
    for r in range(_FRACTION_ROUNDS):
        a = {(r % 3, i % 2, (i * 3) % 4, i % 3): Fraction(i + 1, r % 7 + 2) for i in range(8)}
        b = {(i % 2, (r + i) % 3, i % 3, 1): Fraction(r % 5 - 2 or 1, i + 2) for i in range(6)}
        out: dict = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                cur = out.get(key)
                new = ca * cb if cur is None else cur + ca * cb
                if new == 0:
                    out.pop(key, None)
                else:
                    out[key] = new
        kept += len(out)
    return kept


def _array_part() -> float:
    import numpy as np

    phi = np.exp(1j * np.linspace(0.0, 6.0, _ARRAY_SIZE))
    prev = phi.copy()
    peak = 0.0
    for _ in range(_ARRAY_ROUNDS):
        padded = np.concatenate([phi[-1:], phi, phi[:1]])
        lap = padded[2:] - 2 * phi + padded[:-2]
        nxt = 2 * phi - prev + 1e-4 * lap
        prev, phi = phi, nxt
        peak = float(np.max(np.abs(phi)))
    return peak


def _spawn_part():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


_PARTS = {"fraction": _fraction_part, "array": _array_part, "spawn": _spawn_part}


def reference_block(parts: tuple) -> float:
    """Run the named parts, repeats included, and return their wall seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for part in parts:
            _PARTS[part]()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(blocks: list, parts: tuple) -> float:
    """Host speed over nominal, from the blocks run around a slice of work."""
    return sum(NOMINAL_S[p] for p in parts) * len(blocks) / sum(blocks)


if __name__ == "__main__":
    # Print block timings, for re-deriving NOMINAL_S on a new host class.
    import statistics

    for part in _PARTS:
        reference_block((part,))
        times = [reference_block((part,)) for _ in range(40)]
        print(f"{part}: median {statistics.median(times):.4f} s  min {min(times):.4f}  max {max(times):.4f}")

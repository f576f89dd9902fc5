"""Differential sweep of the snapshot CSV's fast formatter against ``%.12e``.

``exocalc.cells._cells`` formats float64 values with numpy and marks the ones
whose rounding it has proved; ``FLOAT_SPEC %`` formats the rest. The
snapshot CSV and the ``cartan`` rows are both written through it. This module
holds the value families and the comparison that the test suite runs on a
few million values. Run as a script, with no arguments, it compares the
edge families and over 1e7 random values chunk by chunk, prints the
fallback share and exits 1 if any fast cell differs from CPython's:

    PYTHONPATH=src python tests/fmt_sweep.py
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from exocalc.cells import _cells
from exocalc.cli import FLOAT_SPEC

# chunks of 1.5e6 values (``random_values(rng, 10**6)``), so the sweep passes 1e7 values
CHUNKS = 7


def random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random 64-bit patterns (every class of double), then ``n / 4``
    lognormal (sigma 30) and ``n / 4`` wave-like values (a decaying envelope
    times a phase), each of those with a random sign."""
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    lognormal = rng.lognormal(0.0, 30.0, n // 4)
    wave = np.exp(-rng.uniform(0.0, 700.0, n // 4)) * np.cos(rng.uniform(0.0, 100.0, n // 4))
    signs = rng.choice([-1.0, 1.0], 2 * (n // 4))
    return np.concatenate([bits, signs * np.concatenate([lognormal, wave])])


def edge_values(rng: np.random.Generator) -> np.ndarray:
    """Values at the fast path's limits, with both signs: exact and near ties
    ``(k + 1/2) 10^j`` with 13-digit ``k``, the carry family
    ``9.9999999999995 10^j``, ``nextafter`` neighbours of ``1e±290`` and of
    every power of ten, exponents ±99/±100, ±0, subnormals, ±inf and nan."""
    k = rng.integers(10**12, 10**13, 200).astype(np.float64)
    ties = ((k + 0.5)[:, None] * 10.0 ** np.arange(-30, 31)).ravel()
    carries = 9.9999999999995 * 10.0 ** np.arange(-300, 301)
    powers = np.concatenate([10.0 ** np.arange(-307, 309), [1e-290, 1e290]])
    # each value and its ``nextafter`` neighbours up to 3 steps away on either side
    near = (np.concatenate([powers, carries]).view(np.int64)[:, None] + np.arange(-3, 4)).view(np.float64)
    hundreds = (rng.uniform(1.0, 10.0, (50, 1)) * 10.0 ** np.array([-100, -99, 99, 100])).ravel()
    subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan]
    values = np.concatenate([ties, near.ravel(), hundreds, subnormals, special])
    return np.concatenate([values, -values])


def fast_cells_match(values: np.ndarray) -> tuple:
    """``(equal, fast)``: whether the fast path's cells, joined, equal the
    joined ``"," + FLOAT_SPEC % x`` of the same values, and how many it took."""
    cells, fast = _cells(values)
    cells = cells[fast]
    got = cells[cells != ord(" ")].tobytes().decode("ascii")
    want = ("," + FLOAT_SPEC) * int(fast.sum()) % tuple(values[fast].tolist())
    return got == want, int(fast.sum())


def main() -> int:
    rng = np.random.default_rng(20100605)
    checked = fast = 0
    randoms = (random_values(rng, 10**6) for _ in range(CHUNKS))
    for i, values in enumerate(itertools.chain([edge_values(rng)], randoms)):
        equal, taken = fast_cells_match(values)
        if not equal:
            print(f"chunk {i}: a fast cell differs from {FLOAT_SPEC!r}")
            return 1
        checked, fast = checked + len(values), fast + taken
    print(f"{checked} values, {fast} on the fast path ({1 - fast / checked:.2%} fall back), all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())

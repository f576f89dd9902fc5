"""Differential sweep of the explicit leapfrog stepper against the plain complex step.

``exocalc.pde._leapfrog_stepper`` computes a level on the float64 view, skips
the advection term when ``th_x`` is a zero and the level is bounded, and
evaluates again with the complex ops the points whose zero sign or finiteness
the float view cannot vouch for. This module draws random levels whose parts
mix both zeros, subnormals, normal values, values near the amplitude probe's
gate, values whose squares overflow and infinities (no NaN), and compares one
stepper call with ``pde_reference.reference_step`` bit for bit, on every
boundary, for ``m`` in {0, 1} and for ``th_t`` and ``th_x`` among signed
zeros and small and large slopes. It also checks that the amplitude probe,
given the stepper's sum of squares, raises exactly where the reference's
``max |z|`` test does. No NaN part is drawn, because the bit-for-bit
contract leaves out the sign of a NaN, which the order of the ops decides
(the note above the steppers in ``exocalc/pde.py``); a NaN never reaches a
CSV, as the amplitude probe fails a level with a NaN part and the run exits
4. Run as a script, with no arguments, it compares 1e5 levels, prints how
many took each path and exits 1 at the first difference:

    PYTHONPATH=src python tests/step_sweep.py
"""

from __future__ import annotations

import sys

import numpy as np

from exocalc.core import InstabilityError
from exocalc.pde import AMPLITUDE_ABORT, _check_amplitude, _leapfrog_stepper
from pde_reference import _pad, reference_step

LEVELS = 10**5
BOUNDARIES = ("periodic", "dirichlet", "neumann")
SLOPES = (0.0, -0.0, 0.02, -0.02, 1e-3, -1e-3, 0.5, -0.5)
HUGE = (1e308, -1e308, 1.7e154, -1.7e154, np.inf, -np.inf)
GATE = AMPLITUDE_ABORT / 1.5
# how often a part comes from each family of ``random_parts``
WEIGHTS = np.array([1, 1, 1, 5, 1, 1], dtype=float)


def random_parts(rng: np.random.Generator, n: int, families: int) -> np.ndarray:
    """``n`` float parts, each from one of the first ``families`` families: a
    signed zero, a small multiple of the least subnormal, a subnormal, a normal
    value in [-10, 10], a value within 10 % of the gate's part bound, and a
    value whose square overflows or an infinity."""
    values = [
        rng.choice([0.0, -0.0], n),
        rng.integers(-8, 9, n) * 5e-324,
        rng.uniform(-2.2e-308, 2.2e-308, n),
        rng.uniform(-10.0, 10.0, n),
        rng.choice([-1.0, 1.0], n) * rng.uniform(0.9, 1.1, n) * GATE,
        rng.choice(HUGE, n),
    ][:families]
    weights = WEIGHTS[:families]
    return np.choose(rng.choice(families, n, p=weights / weights.sum()), values)


def probe_raises(level: np.ndarray, sumsq) -> bool:
    try:
        _check_amplitude(level, 1, 0.1, sumsq)
    except InstabilityError:
        return True
    return False


def check_level(rng: np.random.Generator) -> tuple:
    """``(equal, skipped, flagged)`` for one random level: whether the stepper
    and the probe agree with the reference, whether the stepper could skip the
    advection term, and whether it rewrote points (returned no sum)."""
    n_x = int(rng.integers(3, 13))
    # a third of the levels stay far inside the gate, a third reach it, a third overflow
    parts = random_parts(rng, 4 * n_x, int(rng.integers(4, 7)))
    prev, cur = parts[: 2 * n_x].view(complex), parts[2 * n_x :].view(complex)
    bc = BOUNDARIES[rng.integers(0, 3)]
    dt, m = (0.1, 0.01)[rng.integers(0, 2)], float(rng.integers(0, 2))
    theta_t = SLOPES[rng.integers(0, len(SLOPES))]
    # half the levels have a zero th_x, where the stepper may skip the advection term
    theta_x = SLOPES[rng.integers(0, 2 if rng.integers(0, 2) else len(SLOPES))]
    dx, out = 0.3, np.zeros(n_x + 2, dtype=complex)
    padded = _pad(cur, bc)
    parts = padded.view(np.float64)
    skipped = theta_x == 0 and parts @ parts <= GATE**2
    sumsq = _leapfrog_stepper(n_x, dx, dt, m, theta_t, theta_x)(1, _pad(prev, bc), padded, out)
    want = reference_step(prev, cur, dx, dt, m, theta_t, theta_x, bc)
    level = out[1:-1]
    equal = np.array_equal(level.view(np.uint64), want.view(np.uint64))
    amp = float(np.max(np.abs(want)))
    equal = equal and probe_raises(level, sumsq) == (not np.isfinite(amp) or amp > AMPLITUDE_ABORT)
    return equal, skipped, sumsq is None


def sweep(rng: np.random.Generator, levels: int) -> tuple:
    """``(first_mismatch, skipped, flagged)`` over ``levels`` random levels;
    ``first_mismatch`` is the index of the first level that differs, or None."""
    skipped = flagged = 0
    # overflow and NaN reach the amplitude probe, as in simulate_time_domain
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(levels):
            equal, skip, flag = check_level(rng)
            if not equal:
                return i, skipped, flagged
            skipped, flagged = skipped + skip, flagged + flag
    return None, skipped, flagged


def main() -> int:
    bad, skipped, flagged = sweep(np.random.default_rng(20260527), LEVELS)
    if bad is not None:
        print(f"level {bad}: the stepper or the probe differs from the reference")
        return 1
    print(f"{LEVELS} levels, {skipped} with the advection term skipped, {flagged} flagged, all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())

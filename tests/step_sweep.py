"""Differential sweep of the explicit leapfrog stepper against the plain complex step.

``exocalc.pde._leapfrog_stepper`` computes a level on the float64 view, skips
the advection term when ``th_x`` is a zero and the level passed the amplitude
probe (on every call of a run but its first), and evaluates again with the
complex ops the points whose zero sign or finiteness the float view cannot
vouch for. What it knows of a level it made (no -0) it carries to the next
call of the same run.
This module draws random levels whose parts mix both zeros, subnormals,
normal values, values near the amplitude probe's gate, values whose squares
overflow and infinities (no NaN), and runs a fresh stepper from them for one
to ``RUN_STEPS`` steps, applying the boundary rule between steps as
``simulate_time_domain`` does. Every level is compared with
``pde_reference.reference_step`` bit for bit, on every boundary, for ``m``
in {0, 1} and for ``th_t`` and ``th_x`` among signed zeros, small and large
slopes, and slopes with ``th_t dt`` at -2 and -3, where the stepper scans
every level for a -0. It also checks that the amplitude probe, given the
stepper's sum of squares, raises exactly where the reference's ``max |z|``
test does; a run ends where the probe raises. No NaN part is drawn, because
the bit-for-bit contract leaves out the sign of a NaN, which the order of the
ops decides (the note above the steppers in ``exocalc/pde.py``); a NaN never
reaches a CSV, as the amplitude probe fails a level with a NaN part and the
run exits 4. Run as a script, with no arguments, it makes 1e5 runs, each
from a freshly drawn level, prints how many levels took each path and exits
1 at the first difference:

    PYTHONPATH=src python tests/step_sweep.py
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np

from exocalc import pde
from exocalc.core import InstabilityError
from exocalc.pde import AMPLITUDE_ABORT, _apply_bc, _check_amplitude, _leapfrog_stepper
from pde_reference import _pad, reference_step

RUNS = 10**5
BOUNDARIES = ("periodic", "dirichlet", "neumann")
SLOPES = (0.0, -0.0, 0.02, -0.02, 1e-3, -1e-3, 0.5, -0.5, -20.0, -30.0, 30.0)
# the most steps a run takes
RUN_STEPS = 4
ZEROS = np.array([0.0, -0.0])
HUGE = np.array([1e308, -1e308, 1.7e154, -1.7e154, np.inf, -np.inf])
GATE = AMPLITUDE_ABORT / 1.5
# the family of each part of ``random_parts`` is drawn from this table, which
# holds family i WEIGHTS[i] times, in order
WEIGHTS = np.array([1, 1, 1, 5, 1, 1])
FAMILY = np.repeat(np.arange(len(WEIGHTS)), WEIGHTS)


def random_parts(rng: np.random.Generator, n: int, families: int) -> np.ndarray:
    """``n`` float parts, each from one of the first ``families`` families: a
    signed zero, a small multiple of the least subnormal, a subnormal, a normal
    value in [-10, 10], a value within 10 % of the gate's part bound, and a
    value whose square overflows or an infinity. One uniform draw picks a
    part's family and one its value (its sign, then its size, for the gate's)."""
    table = FAMILY[: WEIGHTS[:families].sum()]
    pick, u = rng.random((2, n))
    values = [
        ZEROS[(2 * u).astype(int)],
        np.floor(17 * u - 8) * 5e-324,
        (2 * u - 1) * 2.2e-308,
        20 * u - 10,
        np.where(u < 0.5, -GATE, GATE) * (0.9 + 0.2 * (2 * u % 1)),
        HUGE[(6 * u).astype(int)],
    ]
    return np.choose(table[(len(table) * pick).astype(int)], values[:families])


def probe_raises(level: np.ndarray, sumsq) -> bool:
    try:
        _check_amplitude(level, 1, 0.1, sumsq)
    except InstabilityError:
        return True
    return False


@contextlib.contextmanager
def counted_advection():
    """Count in the list it yields the calls of ``pde._advection``, the
    stepper's advection term, while the context is open."""
    calls, advection = [], pde._advection

    def counted(*args):
        calls.append(None)
        advection(*args)

    pde._advection = counted
    try:
        yield calls
    finally:
        pde._advection = advection


def random_run(rng: np.random.Generator) -> tuple:
    """The arguments of ``check_run`` for one random run of 1 to ``RUN_STEPS``
    steps on 3 to 12 points."""
    draws = iter(rng.random(10).tolist())

    def pick(options):
        return options[int(len(options) * next(draws))]

    n_x = pick(range(3, 13))
    # a third of the levels stay far inside the gate, a third reach it, a third
    # overflow; one run in eight holds only zeros and subnormals
    families = pick((4, 5, 6)) if next(draws) < 7 / 8 else pick((2, 3))
    parts = random_parts(rng, 4 * n_x, families)
    bc, dt, m, theta_t = pick(BOUNDARIES), pick((0.1, 0.01)), pick((0.0, 1.0)), pick(SLOPES)
    # half the runs have a zero th_x, where the stepper may skip the advection term
    theta_x = pick(SLOPES[:2] if next(draws) < 0.5 else SLOPES)
    return parts, bc, dt, m, theta_t, theta_x, pick(range(1, RUN_STEPS + 1))


def check_run(parts, bc, dt, m, theta_t, theta_x, steps) -> tuple:
    """``(levels, mismatch, skipped, flagged)`` for a run of a fresh stepper
    from the unpadded levels ``prev`` and ``cur``, the two halves of the float
    ``parts``, on ``dx = 0.3``: how many levels it made, the step (from 0) at
    which the stepper or the probe first differs from the reference or None,
    how many levels the stepper skipped the advection term on, and how
    many it rewrote points of (returned no sum). The run ends after ``steps``
    steps or where the probe raises."""
    level = np.asarray(parts, dtype=np.float64).view(complex)
    n_x, dx = len(level) // 2, 0.3
    prev, cur = level[:n_x], level[n_x:]
    stepper = _leapfrog_stepper(n_x, dx, dt, m, theta_t, theta_x)
    # the three rotating ghost-padded levels of simulate_time_domain
    padded_prev, padded, out = _pad(prev, bc), _pad(cur, bc), np.zeros(n_x + 2, dtype=complex)
    skipped = flagged = 0
    for step in range(steps):
        with counted_advection() as calls:
            sumsq = stepper(step + 1, padded_prev, padded, out)
        skipped += not calls
        flagged += sumsq is None
        want = reference_step(prev, cur, dx, dt, m, theta_t, theta_x, bc)
        if not np.array_equal(out[1:-1].view(np.uint64), want.view(np.uint64)):
            return step + 1, step, skipped, flagged
        _apply_bc(out, bc)
        if bc == "dirichlet":
            want[0] = want[-1] = 0.0
        amp = float(np.abs(want).max())
        aborts = not np.isfinite(amp) or amp > AMPLITUDE_ABORT
        if probe_raises(out[1:-1], sumsq) != aborts:
            return step + 1, step, skipped, flagged
        if aborts:  # the run ends here
            return step + 1, None, skipped, flagged
        padded_prev, padded, out = padded, out, padded_prev
        prev, cur = cur, want
    return steps, None, skipped, flagged


def sweep(rng: np.random.Generator, runs: int) -> tuple:
    """``(first_mismatch, levels, skipped, flagged)`` over ``runs`` random
    runs; ``first_mismatch`` is the index of the first level that differs, or
    None, and ``levels`` the number of levels made."""
    done = skipped = flagged = 0
    # overflow and NaN reach the amplitude probe, as in simulate_time_domain
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(runs):
            made, bad, skip, flag = check_run(*random_run(rng))
            if bad is not None:
                return done + bad, done, skipped, flagged
            done, skipped, flagged = done + made, skipped + skip, flagged + flag
    return None, done, skipped, flagged


def main() -> int:
    bad, levels, skipped, flagged = sweep(np.random.default_rng(20260527), RUNS)
    if bad is not None:
        print(f"level {bad}: the stepper or the probe differs from the reference")
        return 1
    print(f"{RUNS} runs, {levels} levels, {skipped} with the advection term skipped, {flagged} flagged, all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())

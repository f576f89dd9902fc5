"""Frequency-domain ODEs, variable change, and the time-domain simulator."""

import cmath
import contextlib
import math
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exocalc import pde
from exocalc.dispersion import plane_wave_rates
from exocalc.pde import (
    AMPLITUDE_ABORT,
    InstabilityError,
    SimGrid,
    WavePacket,
    change_of_variable,
    fit_decay_rate,
    inverse_change_of_variable,
    simulate_time_domain,
    solve_ode_x,
    solve_ode_y,
    _check_amplitude,
    _leapfrog_stepper,
    _x_term_stepper,
)
from pde_reference import (
    _implicit_x_term_step,
    _pad,
    balance_residuals,
    reference_simulate,
    reference_step,
    staggered_energies,
)
from step_sweep import check_run, counted_advection, sweep


def test_ode_x_free_case_oscillatory():
    omega, m = 2.0, 1.0
    sol = solve_ode_x(omega, m, 0.0, 0.0, domain=(0.0, 1.0), bc=(1.0, 0.0))
    k = math.sqrt(omega * omega - m * m)
    r_plus, r_minus = sol.char_roots
    assert r_plus == pytest.approx(1j * k)
    assert r_minus == pytest.approx(-1j * k)
    assert np.max(np.abs(sol.phi - sol.phi_closed)) < 1e-8


def test_ode_x_numeric_vs_closed_random():
    rng = random.Random(70)
    for _ in range(8):
        omega = complex(rng.uniform(0.5, 2.5), rng.uniform(-0.1, 0.1))
        m = rng.uniform(0.5, 1.5)
        alpha = rng.uniform(-0.2, 0.2)
        beta = rng.uniform(-0.5, 0.5)
        bc = (
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        sol = solve_ode_x(omega, m, alpha, beta, domain=(0.0, 1.0), bc=bc)
        scale = max(1.0, float(np.max(np.abs(sol.phi_closed))))
        assert np.max(np.abs(sol.phi - sol.phi_closed)) / scale < 1e-8


def test_ode_x_characteristic_roots_satisfy_ode():
    omega, m, alpha, beta = 1.0, 1.0, 0.03, 0.1
    sol = solve_ode_x(omega, m, alpha, beta)
    q = m * m - omega * omega + omega * alpha
    for r in sol.char_roots:
        assert abs(r * r - beta * r - q) < 1e-14
    disc = cmath.sqrt(beta * beta + 4 * (m * m - omega * omega + omega * alpha))
    assert sol.char_roots[0] == pytest.approx((beta + disc) / 2)


def test_ode_boundary_values_respected():
    args, kw = (1.7, 1.0, 0.05, 0.2), {"domain": (0.0, 2.0), "bc": (0.3 + 0.1j, -0.4)}
    for sol in (
        solve_ode_x(*args, **kw),
        solve_ode_y(*args, **kw),
        solve_ode_y(*args, **kw, linearized=True),
    ):
        assert sol.phi[0] == pytest.approx(0.3 + 0.1j, abs=1e-10)
        assert sol.phi[-1] == pytest.approx(-0.4, abs=1e-8)
        assert sol.residual < 1e-3  # second-order stencil floor


def test_ode_x_singular_boundary_fit_rejected():
    # the second basis solution vanishes at the far end when the domain
    # length hits a conjugate point of the free oscillator
    m = 1.0
    omega = math.sqrt(m * m + math.pi**2)
    with pytest.raises(ValueError):
        solve_ode_x(omega, m, 0.0, 0.0, domain=(0.0, 1.0), bc=(1.0, 0.0))


def test_ode_x_equal_roots_branch():
    # q = -beta^2/4 collapses the characteristic roots (up to rounding of
    # the discriminant); the degenerate x*e^{rx} branch must keep the
    # closed form accurate against the numeric route
    beta = 0.2
    m, alpha = 1.0, 0.0
    omega = math.sqrt(m * m + beta * beta / 4)
    sol = solve_ode_x(omega, m, alpha, beta, bc=(1.0, 0.4))
    r_plus, r_minus = sol.char_roots
    assert abs(r_plus - r_minus) < 1e-6
    scale = max(1.0, float(np.max(np.abs(sol.phi_closed))))
    assert np.max(np.abs(sol.phi - sol.phi_closed)) / scale < 1e-8


def test_change_of_variable():
    assert change_of_variable(0.7, 0.0) == 0.7
    assert change_of_variable(math.log(2.0), 1.0) == pytest.approx(1.0)
    xs = np.linspace(-2, 2, 101)
    for beta in (-0.7, -1e-9, 1e-9, 0.4):
        ys = change_of_variable(xs, beta)
        assert np.all(np.diff(ys) > 0)
        assert change_of_variable(0.0, beta) == 0.0
        back = inverse_change_of_variable(ys, beta)
        assert np.max(np.abs(back - xs)) < 1e-9


def test_ode_y_flat_reduces_to_x():
    omega, m, alpha = 1.8, 1.0, 0.04
    bc = (1.0, 0.25 + 0.1j)
    sx = solve_ode_x(omega, m, alpha, 0.0, bc=bc)
    sy = solve_ode_y(omega, m, alpha, 0.0, bc=bc)
    assert np.max(np.abs(sx.phi - sy.phi)) < 1e-9


def test_ode_y_mapped_back_agreement():
    rng = random.Random(71)
    for _ in range(5):
        omega = complex(rng.uniform(1.0, 2.0), rng.uniform(-0.05, 0.05))
        m, alpha, beta = 1.0, rng.uniform(-0.1, 0.1), rng.uniform(-0.4, 0.4)
        bc = (1.0, complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        sx = solve_ode_x(omega, m, alpha, beta, bc=bc)
        sy = solve_ode_y(omega, m, alpha, beta, bc=bc)
        xs = np.linspace(0.0, 1.0, 33)
        mapped = sy.at(change_of_variable(xs, beta))
        direct = sx.at(xs)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(mapped - direct)) / scale < 1e-6


def test_ode_y_linearized_second_order_deviation():
    omega, m, alpha = 1.4 + 0.02j, 1.0, 0.05
    bc = (1.0, 0.2 + 0.1j)
    devs = []
    for beta in (0.2, 0.1):
        exact = solve_ode_y(omega, m, alpha, beta, bc=bc)
        approx = solve_ode_y(omega, m, alpha, beta, bc=bc, linearized=True)
        devs.append(float(np.max(np.abs(exact.phi - approx.phi))))
    ratio = devs[0] / devs[1]
    assert 4 * 0.8 <= ratio <= 4 * 1.2


def test_cfl_guard():
    for dt, match in ((0.2, "violates"), (0.0, "must be positive"), (-0.1, "must be positive")):
        with pytest.raises(ValueError, match=match):  # dx = 0.15625
            SimGrid(0.0, 10.0, 64, dt, 16, bc="periodic")


@pytest.mark.parametrize("stride", [1, 2, 3, 16, 17, 40])
def test_snapshot_times_predict_stored_times(stride):
    grid = SimGrid(0.0, 10.0, 64, 0.1, 17, bc="periodic", snapshot_stride=stride)
    planned = grid.snapshot_times()
    simulate_time_domain(grid, 1.0, 0.0, 0.0, initial=WavePacket(5.0, 1.0, 0.0))
    assert planned.tolist() == grid.times.tolist()
    assert len(grid.snapshots) == 17 // stride + 1
    if stride == 1:
        assert grid.times[1] == 0.1  # step 1 is stored like every other step


@pytest.mark.parametrize("x_min, x_max", [(10.0, 0.0), (5.0, 5.0)])
def test_empty_grid_interval_rejected(x_min, x_max):
    with pytest.raises(ValueError, match=r"grid interval \[.*\] is empty"):
        SimGrid(x_min, x_max, 64, 0.1, 17, bc="periodic")


@pytest.mark.parametrize("stride", [0, -1])
def test_snapshot_stride_below_one_rejected(stride):
    with pytest.raises(ValueError):
        SimGrid(0.0, 10.0, 64, 0.1, 17, bc="periodic", snapshot_stride=stride)


def _energies(grid, m):
    return staggered_energies(grid.snapshots, grid.dt, grid.dx, m, grid.bc)


def test_energy_conserved_undamped():
    grid = SimGrid(0.0, 100.0, 1024, 0.02, 1000, bc="periodic", snapshot_stride=1)
    simulate_time_domain(grid, 1.0, 0.0, 0.0, initial=WavePacket(50.0, 8.0, 0.5))
    energies = _energies(grid, 1.0)
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    assert drift < 1e-12


@settings(deadline=None)
@given(
    bc=st.sampled_from(["periodic", "dirichlet", "neumann"]),
    theta_t=st.floats(-0.05, 0.05),
    theta_x=st.floats(-0.05, 0.05),
)
@example(bc="periodic", theta_t=0.0, theta_x=0.0)
@example(bc="dirichlet", theta_t=0.0, theta_x=0.0)
@example(bc="neumann", theta_t=0.0, theta_x=0.0)
def test_energy_obeys_the_discrete_balance_law(bc, theta_t, theta_x):
    """Every step changes the staggered energy by the theta source of that
    step, to rounding, on every boundary and for either sign of either slope."""
    grid = SimGrid(0.0, 100.0, 512, 0.1, 400, bc=bc, snapshot_stride=1)
    simulate_time_domain(grid, 1.0, theta_t, theta_x, initial=WavePacket(50.0, 6.0, 0.8))
    residuals = balance_residuals(grid.snapshots, grid.dt, grid.dx, 1.0, theta_t, theta_x, bc)
    assert np.max(np.abs(residuals)) <= 1e-13 * _energies(grid, 1.0)[0]


def test_damping_rate_matches_mode_analysis():
    td = 0.02
    grid = SimGrid(0.0, 200.0, 1024, 0.16, 2048, bc="periodic", snapshot_stride=64)
    simulate_time_domain(grid, 1.0, td, 0.0, initial=WavePacket(100.0, 12.0, 0.5))
    rate = fit_decay_rate(grid.times[1:], np.log(grid.l2_norms()[1:]))
    expect = abs(plane_wave_rates(0.5, 1.0, td, 0.0).imag)
    assert abs(abs(rate) - expect) / expect < 0.02


def test_left_right_movers_opposite_rates():
    rates = {}
    for key, k0 in (("plus", 1.0), ("minus", -1.0)):
        grid = SimGrid(0.0, 200.0, 1024, 0.16, 1024, bc="periodic", snapshot_stride=64)
        simulate_time_domain(grid, 1.0, 0.0, 0.02, initial=WavePacket(100.0, 10.0, k0))
        rates[key] = fit_decay_rate(grid.times[1:], np.log(grid.l2_norms()[1:]))
    assert rates["plus"] * rates["minus"] < 0
    magnitude = 0.02 * 1.0 / (2 * math.sqrt(2.0))
    for rate in rates.values():
        assert abs(abs(rate) - magnitude) / magnitude < 0.15


def test_rate_fit_convergence_second_order():
    # snapshot times and the fit window are aligned across resolutions so
    # only the discretization error changes between the two runs
    errs = []
    for n, dt, stride in ((1024, 0.16, 25), (2048, 0.08, 50)):
        grid = SimGrid(0.0, 200.0, n, dt, int(320 / dt), bc="periodic", snapshot_stride=stride)
        simulate_time_domain(grid, 1.0, 0.05, 0.0, initial=WavePacket(100.0, 12.0, 0.5))
        window = (grid.times >= 4.0) & (grid.times <= 316.0)
        rate = fit_decay_rate(grid.times[window], np.log(grid.l2_norms()[window]))
        errs.append(abs(abs(rate) - 0.025))
    assert 3.0 < errs[0] / errs[1] < 5.5


def test_mode_frequency_matches_the_scheme_and_converges_at_second_order():
    """One periodic Fourier mode of the explicit leapfrog follows the scheme's
    two-term recurrence: its complex frequencies, fitted from the evolution,
    are the recurrence's roots, and they converge on the continuum relation
    at order 2 as ``dx`` and ``dt`` halve together."""
    m, theta_t, theta_x, span, mode, t_end = 1.0, 0.02, 0.01, 200.0, 5, 10.0
    kappa = 2 * math.pi * mode / span  # FFT index ``mode`` is exp(i kappa x), so k = -kappa
    w = complex(plane_wave_rates(-kappa, m, theta_t, theta_x))
    continuum = np.array([w, -1j * theta_t - w])  # the relation's roots sum to -i th_t
    errors = []
    for n_x, dt in ((512, 0.2), (1024, 0.1), (2048, 0.05), (4096, 0.025)):
        grid = SimGrid(0.0, span, n_x, dt, round(t_end / dt), bc="periodic", snapshot_stride=1)
        simulate_time_domain(grid, m, theta_t, theta_x, initial=WavePacket(span / 2, 12.0, kappa))
        c = np.fft.fft(grid.snapshots, axis=1)[:, mode]
        # least-squares Prony fit of c[n + 2] = p c[n + 1] + q c[n]
        (p, q), *_ = np.linalg.lstsq(np.column_stack([c[1:-1], c[:-2]]), c[2:], rcond=None)
        # the leapfrog's factor z = exp(i w dt) solves (1 - a) z^2 - (2 - dt^2 s) z + (1 + a) = 0
        # with a = th_t dt / 2, s = K^2 + m^2 + i th_x sin(kappa dx) / dx, K = 2 sin(kappa dx / 2) / dx
        a, dx = theta_t * dt / 2, grid.dx
        s = (2 * math.sin(kappa * dx / 2) / dx) ** 2 + m * m + 1j * theta_x * math.sin(kappa * dx) / dx
        scheme = np.roots([1 - a, -(2 - dt * dt * s), 1 + a])
        # ordered by phase, so the branch with Re w > 0 comes first
        fitted, scheme = (sorted(z, key=np.angle, reverse=True) for z in (np.roots([1, -p, -q]), scheme))
        assert np.abs(np.subtract(fitted, scheme)).max() < 1e-9
        errors.append(np.abs(np.log(fitted) / (1j * dt) - continuum).max())
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(np.abs(orders - 2.0) < 0.05), orders


def test_dirichlet_boundaries_pinned():
    grid = SimGrid(0.0, 100.0, 512, 0.1, 200, bc="dirichlet", snapshot_stride=50)
    simulate_time_domain(grid, 1.0, 0.01, 0.0, initial=WavePacket(50.0, 5.0, 1.0))
    assert np.all(np.abs(grid.snapshots[:, 0]) == 0)
    assert np.all(np.abs(grid.snapshots[:, -1]) == 0)


def test_instability_detected():
    # mass-dominated step passes the plain CFL bound but is unstable
    grid = SimGrid(0.0, 100.0, 256, 0.33, 4000, bc="periodic", snapshot_stride=100)
    with pytest.raises(InstabilityError):
        simulate_time_domain(grid, 6.0, 0.0, 0.0, initial=WavePacket(50.0, 5.0, 0.5))


@pytest.mark.parametrize("theta_t", [math.nan, math.inf, 1e300], ids=["nan", "inf", "huge"])
@pytest.mark.parametrize("x_term", [False, True], ids=["explicit", "implicit"])
def test_non_finite_field_is_instability(theta_t, x_term):
    # the CLI rejects non-finite config values; the library reports a non-finite field
    grid = SimGrid(0.0, 100.0, 64, 0.3, 16, bc="dirichlet", snapshot_stride=4)
    with np.errstate(all="ignore"), warnings.catch_warnings(), pytest.raises(InstabilityError):
        warnings.simplefilter("ignore")
        simulate_time_domain(
            grid, 1.0, theta_t, 0.0, include_x_term=x_term, initial=WavePacket(50.0, 5.0, 0.5)
        )


def _same_bits(a, b) -> bool:
    """Equal as stored doubles, so -0.0 differs from 0.0 and NaN equals NaN."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _holds_negative_zero(a) -> bool:
    parts = np.ascontiguousarray(a).view(np.float64)
    return bool(np.signbit(parts[parts == 0]).any())


# an underflowing, negative-amplitude packet: its tails are zeros of both signs
_SIGNED_ZERO_PACKET = WavePacket(10.0, 0.2, 1.3, -1.0)
# a packet at the left end of the box whose sum of squares starts within the
# amplitude probe's gate; at theta_t 0.5 its probed levels grow past half that
# gate, then past the probe's threshold, and the run aborts
_GATE_PACKET = WavePacket(0.0, 2.0, 0.0, 1e11)
# explicit leapfrog: every boundary kind, theta_t of both signs, with and without
# theta_x; the signed-zero packet on every boundary kind, also at theta_t dt -2
# and -3, where the stepper scans every level for a -0; and the gate run, whose
# levels the stepper skips the advection term on above half the probe's gate
_EXPLICIT_RUNS = [
    pytest.param(bc, theta_t, theta_x, WavePacket(10.0, 2.0, 1.3), id=f"{bc}-{theta_t}-{theta_x}")
    for bc in ("periodic", "dirichlet", "neumann")
    for theta_t in (0.04, -0.04)
    for theta_x in (0.0, 0.03)
] + [
    pytest.param(bc, -0.04, 0.03, _SIGNED_ZERO_PACKET, id=f"{bc}-signed-zeros")
    for bc in ("periodic", "dirichlet", "neumann")
] + [
    pytest.param(bc, theta_t, theta_x, _SIGNED_ZERO_PACKET, id=f"{bc}-signed-zeros-{theta_t}-{theta_x}")
    for bc in ("periodic", "dirichlet", "neumann")
    for theta_t, theta_x in ((-20.0, 0.0), (-30.0, 0.03))
] + [
    pytest.param(bc, 0.5, 0.0, _GATE_PACKET, id=f"{bc}-gate-crossing")
    for bc in ("periodic", "dirichlet", "neumann")
]
# th_t of the x-term runs that cross t = 1 / (2 th_t): on the 80 steps of dt
# 0.005, a_tt = 1 - 2 th_t t is negative from step 50 on
_CROSSING_THETA_T = 2.0
# implicit x-term leg: dirichlet only, on boxes with x_min at zero and below it,
# inside the validity scale and past a_tt = 0; and an underflowing,
# negative-amplitude packet
_X_TERM_RUNS = [
    pytest.param(
        x_min, x_max, theta_t, theta_x, WavePacket(0.5 * (x_min + x_max), 0.4, 3.0),
        id=f"{x_min}-{x_max}-{theta_t}-{theta_x}",
    )
    for x_min, x_max in ((0.0, 4.0), (-2.0, 2.0))
    for theta_t, theta_x in ((0.015, 0.0), (-0.015, 0.01), (_CROSSING_THETA_T, 0.01))
] + [pytest.param(0.0, 4.0, -0.015, 0.01, WavePacket(1.0, 0.05, 3.0, -1.0), id="signed-zeros")]


def _explicit_run(simulate, bc, theta_t, theta_x, packet):
    """``simulate``'s run on a 96-point box: its times and snapshots, or the
    step and amplitude bits of its ``InstabilityError``."""
    grid = SimGrid(0.0, 20.0, 96, 0.1, 120, bc=bc, snapshot_stride=1)
    try:
        result = simulate(grid, 1.0, theta_t, theta_x, initial=packet)
    except InstabilityError as exc:
        return exc.step, _float_bits(exc.amplitude)
    return (result.times, result.snapshots) if isinstance(result, SimGrid) else result


@pytest.mark.parametrize("bc,theta_t,theta_x,packet", _EXPLICIT_RUNS)
def test_leapfrog_matches_the_allocating_reference_bit_for_bit(bc, theta_t, theta_x, packet):
    got = _explicit_run(simulate_time_domain, bc, theta_t, theta_x, packet)
    want = _explicit_run(reference_simulate, bc, theta_t, theta_x, packet)
    if packet is _GATE_PACKET:  # the run aborts, past the gate
        assert got == want and want[0] < 120
        return
    assert _same_bits(got[0], want[0])
    assert _same_bits(got[1], want[1])
    if packet.amplitude < 0:  # the case is not vacuous: the run holds negative zeros
        assert _holds_negative_zero(want[1])


@pytest.mark.parametrize("theta_x", [0.0, 0.03])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
def test_the_advection_term_is_skipped_on_every_probed_level(bc, theta_x, monkeypatch):
    """With theta_x = 0 the stepper computes the advection term on the run's
    first level only, the seeded one that no probe has seen: every later level
    passed the amplitude probe, which makes the term a zero whatever the
    level's sum of squares. With theta_x != 0 it computes the term on every
    level."""
    steps, stepper = [], pde._leapfrog_stepper

    def watched(*args):
        step = stepper(*args)

        def run(n, prev, cur, out):
            c = cur.view(np.float64)
            before = len(calls)
            result = step(n, prev, cur, out)
            steps.append((c @ c, len(calls) > before))
            return result

        return run

    monkeypatch.setattr(pde, "_leapfrog_stepper", watched)
    with counted_advection() as calls:
        _explicit_run(simulate_time_domain, bc, 0.5, theta_x, _GATE_PACKET)
    computed = [done for _, done in steps]
    if theta_x:
        assert all(computed)
        return
    assert computed == [True] + [False] * (len(steps) - 1)
    # not vacuous: a level it skips on has a sum of squares, ghosts included,
    # above half the probe's gate
    assert any(sumsq > pde._SUMSQ_GATE / 2 for sumsq, _ in steps[1:])


@pytest.mark.parametrize("x_min,x_max,theta_t,theta_x,packet", _X_TERM_RUNS)
def test_x_term_step_matches_the_allocating_reference_bit_for_bit(x_min, x_max, theta_t, theta_x, packet):
    grids = [SimGrid(x_min, x_max, 64, 0.005, 80, bc="dirichlet", snapshot_stride=1) for _ in range(2)]
    # the crossing th_t puts extent * |grad theta| at 4 or 8, far above 0.1
    crossing = theta_t == _CROSSING_THETA_T
    with pytest.warns(UserWarning, match="validity scale") if crossing else contextlib.nullcontext():
        simulate_time_domain(grids[0], 1.0, theta_t, theta_x, include_x_term=True, initial=packet)
    times, snapshots = reference_simulate(
        grids[1], 1.0, theta_t, theta_x, include_x_term=True, initial=packet
    )
    assert _same_bits(grids[0].times, times)
    assert _same_bits(grids[0].snapshots, snapshots)
    if packet.amplitude < 0:  # the case is not vacuous: the run holds negative zeros
        assert _holds_negative_zero(snapshots)


# one part of a level: both zeros, the smallest subnormals (whose products
# with the step's coefficients underflow), other subnormals, normal values,
# values near the amplitude probe's fast-path bound, values whose squares
# overflow the probe's sum (1.7e154 and up), and infinities; no NaN
_PART = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1e308, -1e308, 1.7e154, -1.7e154, math.inf, -math.inf]),
    st.integers(-8, 8).map(lambda k: k * 5e-324),
    st.floats(-2.2e-308, 2.2e-308),
    st.floats(-10.0, 10.0),
    st.floats(0.9, 1.1).map(lambda v: v * AMPLITUDE_ABORT / 1.5),
    st.floats(-1.1, -0.9).map(lambda v: v * AMPLITUDE_ABORT / 1.5),
)
_SLOPE = st.sampled_from([0.0, -0.0, 0.02, -0.02, 1e-3, -1e-3, 0.5, -0.5])


@st.composite
def _levels(draw):
    """Two unpadded complex levels of a common length."""
    size = 2 * draw(st.integers(3, 12))
    parts = st.lists(_PART, min_size=size, max_size=size)
    return tuple(np.array(draw(parts)).view(complex) for _ in range(2))


@settings(deadline=None, max_examples=300)
@given(
    levels=_levels(),
    bc=st.sampled_from(["periodic", "dirichlet", "neumann"]),
    dt=st.sampled_from([0.1, 0.01]),
    m=st.sampled_from([0.0, 1.0]),
    theta_t=_SLOPE,
    theta_x=_SLOPE,
    step=st.integers(1, 400),
)
# a zero part next to the smallest subnormal: dt^2 lap underflows, and the
# cross terms of 2 cur set the sign of the zero that comes out
@example(
    levels=(np.zeros(3, dtype=complex), np.array([complex(0.0, -0.0), complex(0.0, -5e-324), 0j])),
    bc="periodic", dt=0.1, m=0.0, theta_t=0.0, theta_x=0.0, step=1,
)
# a -0 in the leading term a_tt (2 cur - prev) / dt^2 of the x-term's right-hand
# side: the complex ops' cross terms turn it into +0, which a float-view
# right-hand side would keep as -0
@example(
    levels=(
        np.array([0j, complex(4e-323, 0.0), complex(-0.0, -0.0)]),
        np.array([complex(5e-324, -1e-323), 0j, 0j]),
    ),
    bc="periodic", dt=0.1, m=0.0, theta_t=0.5, theta_x=0.5, step=259,
)
# past t = 1 / (2 th_t), where a_tt < 0, the x-term's leading term is -0 on the
# complex route where a float-view right-hand side would make it +0
@example(
    levels=(
        np.array(
            [0.15927159690267856, -0.0, -0.0, -0.0, 1.3811193935406947, 0.0, -0.49130268764043683, -0.0]
        ).view(complex),
        np.array([-1e-323, -0.0, -0.0, 0.0, 0.0, -0.0, 5e-324, -0.0]).view(complex),
    ),
    bc="periodic", dt=0.1, m=0.0, theta_t=0.02, theta_x=-0.5, step=5083,
)
# right - left overflows while lap is 0: with th_x = 0 the advection term is
# th_x * inf = NaN, so the explicit step computes that term on a run's first
# level, which no amplitude probe has seen
@example(
    levels=(np.zeros(3, dtype=complex), np.array([1e308, 0.0, -1e308], dtype=complex)),
    bc="periodic", dt=0.1, m=0.0, theta_t=0.0, theta_x=0.0, step=1,
)
@example(
    levels=(np.zeros(3, dtype=complex), np.array([1e308, 0.0, -1e308], dtype=complex)),
    bc="periodic", dt=0.1, m=0.0, theta_t=0.0, theta_x=-0.0, step=1,
)
# an infinite part: the cross terms 0 * inf turn the other part into NaN
@example(
    levels=(np.array([1 + 0j, -2 - 2j, 1 + 0j]), np.array([complex(1.0, math.inf), 0j, 1j])),
    bc="periodic", dt=0.1, m=1.0, theta_t=0.02, theta_x=0.02, step=7,
)
def test_one_step_of_each_kernel_matches_the_plain_complex_step_bit_for_bit(
    levels, bc, dt, m, theta_t, theta_x, step
):
    """Each step kernel equals its plain complex step on every double but
    NaN, which is not drawn: the sign of a zero part, a product that
    underflows and an infinite part included. The explicit kernel runs on
    the float view and evaluates the points it flags again; the x-term
    kernel's right-hand side is the reference's complex expression, in the
    same order of ops. The x-term kernel takes its ``step``-th step on a
    dirichlet box of width 4."""
    prev, cur = levels
    n_x = len(cur)
    out = np.zeros(n_x + 2, dtype=complex)
    dx = 0.3
    with np.errstate(over="ignore", invalid="ignore"):  # as in simulate_time_domain
        _leapfrog_stepper(n_x, dx, dt, m, theta_t, theta_x)(1, _pad(prev, bc), _pad(cur, bc), out)
        want = reference_step(prev, cur, dx, dt, m, theta_t, theta_x, bc)
    assert _same_bits(out[1:-1], want)

    xs = np.linspace(-2.0, 2.0, n_x)
    dx, dt = xs[1] - xs[0], 0.005
    with np.errstate(over="ignore", invalid="ignore"):
        step_fn = _x_term_stepper(xs, dx, dt, m, theta_t, theta_x)
        step_fn(step, _pad(prev, "dirichlet"), _pad(cur, "dirichlet"), out)
        want = _implicit_x_term_step(prev, cur, step * dt, xs, dt, dx, m, theta_t, theta_x, "dirichlet")
    assert _same_bits(out[1:-1], want)


# runs whose first step makes a -0 from a part that was not one, and whose
# second step takes it: th_t dt 3 (denom < 0), -2 (half the least subnormal
# ties to -0) and -3 (1 / denom = 0.4); found by the sweep's random runs
_NEW_NEGATIVE_ZERO_RUNS = {
    "3": ([0.0, -2e-323, -0.0, -0.0, 0.0, -1.5e-323, 5e-324, 3.5e-323, 0.0, 0.0, 0.0, -2e-323],
          "neumann", 0.1, 1.0, 30.0, -0.0),
    "-2": ([-1e-323, -0.0, -1.5427773100668724e-308, 3.14644982766337e-309, 0.0, 0.0,
            6.21934434324669e-309, 5e-324, 2.5e-323, -1.5e-323, 0.0, 0.0],
           "neumann", 0.1, 1.0, -20.0, 0.0),
    "-3": ([0.0, -0.0, 0.0, 1e-323, -1e-323, -0.0, -3.5e-323, 0.0, 0.0, -5e-324, 0.0, -1.5e-323],
           "neumann", 0.1, 1.0, -30.0, -0.0),
}


@pytest.mark.parametrize("run", _NEW_NEGATIVE_ZERO_RUNS.values(), ids=_NEW_NEGATIVE_ZERO_RUNS)
def test_a_run_scans_every_level_where_a_step_can_make_a_negative_zero(run):
    """Where ``1 / denom <= 0.5`` a step can turn a part that is not -0 into
    -0, so the stepper scans every level of the run; each level of these runs
    equals the reference's bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        assert check_run(*run, steps=4)[1] is None


def test_stepper_sweep_matches_the_plain_complex_step():
    """1200 runs of ``step_sweep`` (``python tests/step_sweep.py``
    makes 1e5): every stepper call and probe decision equals the reference's,
    and the skipped, flagged and plain paths are all taken."""
    bad, levels, skipped, flagged = sweep(np.random.default_rng(27), 1200)
    assert bad is None
    assert 0 < skipped < levels and 0 < flagged < levels


def _instability(fn, grid, m, theta_t, x_term, packet) -> InstabilityError:
    with np.errstate(all="ignore"), warnings.catch_warnings(), pytest.raises(InstabilityError) as info:
        warnings.simplefilter("ignore")
        fn(grid, m, theta_t, 0.0, include_x_term=x_term, initial=packet)
    return info.value


@pytest.mark.parametrize(
    "grid_args,m,theta_t,x_term,packet",
    [
        ((0.0, 100.0, 256, 0.33, 4000, "periodic", 100), 6.0, 0.0, False, WavePacket(50.0, 5.0, 0.5)),
    ]
    + [
        ((0.0, 100.0, 64, 0.3, 16, "dirichlet", 4), 1.0, theta_t, x_term, WavePacket(50.0, 5.0, 0.5))
        for theta_t in (math.nan, math.inf, 1e300)
        for x_term in (False, True)
    ]
    # the seeded level overflows, so the first step meets infinite parts
    + [((0.0, 20.0, 32, 0.1, 6, "periodic", 1), 1.0, 1e150, False, WavePacket(10.0, 2.0, 0.5, 1e300))],
    ids=["mass-dominated"]
    + [f"{t}-{k}" for t in ("nan", "inf", "huge") for k in ("explicit", "implicit")]
    + ["overflowing-seed"],
)
def test_instability_matches_the_allocating_reference(grid_args, m, theta_t, x_term, packet):
    got = _instability(simulate_time_domain, SimGrid(*grid_args), m, theta_t, x_term, packet)
    want = _instability(reference_simulate, SimGrid(*grid_args), m, theta_t, x_term, packet)
    assert got.step == want.step
    assert _float_bits(got.time) == _float_bits(want.time)
    assert _float_bits(got.amplitude) == _float_bits(want.amplitude)
    assert str(got) == str(want)


def test_amplitude_probe_judges_the_modulus_near_the_threshold():
    # every part 0.8e12 is below the threshold, every modulus ~1.13e12 above it
    field = np.full(64, 0.8e12 * (1 + 1j))
    assert np.max(np.abs(field.view(np.float64))) < AMPLITUDE_ABORT < np.min(np.abs(field))
    with pytest.raises(InstabilityError) as info:
        _check_amplitude(field, 7, 0.25)
    assert (info.value.step, info.value.time) == (7, 7 * 0.25)
    assert _float_bits(info.value.amplitude) == _float_bits(float(np.max(np.abs(field))))
    # just under the threshold in modulus, and far under it: no abort
    for value in (0.7e12 * (1 + 1j), AMPLITUDE_ABORT * (1 - 1e-12) + 0j, 1.0 - 2.0j):
        field = np.full(64, value)
        assert np.max(np.abs(field)) <= AMPLITUDE_ABORT
        _check_amplitude(field, 7, 0.25)


def test_amplitude_probe_gates_on_the_sum_of_squares():
    # 4096 points of modulus 0.9e12: the sum of squares is over the gate, and the exact path passes
    field = np.full(4096, 0.9e12 * np.exp(0.3j))
    parts = field.view(np.float64)
    assert parts @ parts > (AMPLITUDE_ABORT / 1.5) ** 2
    assert np.max(np.abs(field)) < AMPLITUDE_ABORT
    _check_amplitude(field, 7, 0.25)
    # one point over the threshold raises with its modulus
    field[1234] = 1.01e12
    with pytest.raises(InstabilityError) as info:
        _check_amplitude(field, 7, 0.25)
    assert _float_bits(info.value.amplitude) == _float_bits(1.01e12)
    # one NaN part raises with a NaN amplitude
    field = np.full(64, 1.0 - 2.0j)
    field[5] = complex(math.nan, 0.0)
    with pytest.raises(InstabilityError) as info:
        _check_amplitude(field, 7, 0.25)
    assert math.isnan(info.value.amplitude)


@pytest.mark.parametrize("bc", ["periodic", "neumann"])
def test_x_term_on_other_boundaries_raises_without_a_warning(bc):
    # the gradient is far outside the x-term's validity scale, which only warns on a valid call
    grid = SimGrid(0.0, 100.0, 64, 0.3, 16, bc=bc)
    with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError, match="dirichlet"):
        warnings.simplefilter("always")
        simulate_time_domain(
            grid, 1.0, 0.02, 0.0, include_x_term=True, initial=WavePacket(50.0, 10.0, 0.0)
        )
    assert caught == []


def test_x_term_runs_and_warns_out_of_scale():
    grid = SimGrid(0.0, 40.0, 256, 0.1, 64, bc="dirichlet", snapshot_stride=16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate_time_domain(
            grid, 1.0, 0.02, 0.0, include_x_term=True, initial=WavePacket(20.0, 3.0, 0.8)
        )
    (warning,) = [w for w in caught if "validity" in str(w.message)]
    assert warning.filename == __file__  # attributed to the caller, not to numpy's errstate
    assert np.isfinite(grid.snapshots[-1]).all()


@pytest.mark.parametrize("theta_t,theta_x", [(0.015, 0.0), (0.0, 0.01), (0.015, 0.01)])
def test_x_term_run_converges_at_second_order(theta_t, theta_x):
    """The implicit x-term run is second order in ``dx`` and ``dt`` together, its
    first step included: successive final snapshots of grids refined by 2 differ
    at the shared points by errors whose ratios give orders 2.00 +- 0.05."""
    finals = []
    for k in range(5):
        n_t = 50 * 2**k
        grid = SimGrid(0.0, 4.0, 64 * 2**k + 1, 0.02 / 2**k, n_t, bc="dirichlet", snapshot_stride=n_t)
        simulate_time_domain(
            grid, 1.0, theta_t, theta_x, include_x_term=True, initial=WavePacket(2.0, 0.4, 3.0)
        )
        finals.append(grid.snapshots[-1])
    diffs = [np.abs(fine[::2] - coarse).max() for coarse, fine in zip(finals, finals[1:])]
    orders = np.log2(np.array(diffs[:-1]) / diffs[1:])
    assert np.all(np.abs(orders - 2.0) < 0.05), orders


def test_x_term_is_first_order_perturbation():
    # deviation from the plain run scales linearly with the gradient size
    def deviation(td):
        base = SimGrid(0.0, 8.0, 256, 0.02, 64, bc="dirichlet", snapshot_stride=64)
        pert = SimGrid(0.0, 8.0, 256, 0.02, 64, bc="dirichlet", snapshot_stride=64)
        packet = WavePacket(4.0, 0.8, 1.0)
        simulate_time_domain(base, 1.0, td, 0.0, initial=packet)
        simulate_time_domain(pert, 1.0, td, 0.0, include_x_term=True, initial=packet)
        return float(np.max(np.abs(base.snapshots[-1] - pert.snapshots[-1])))

    ratio = deviation(0.01) / deviation(0.005)
    assert 1.7 < ratio < 2.3


def test_neumann_boundaries_run_and_conserve():
    grid = SimGrid(0.0, 100.0, 512, 0.1, 400, bc="neumann", snapshot_stride=1)
    simulate_time_domain(grid, 1.0, 0.0, 0.0, initial=WavePacket(50.0, 6.0, 0.8))
    assert np.isfinite(grid.snapshots).all()
    # the mirrored ghosts conserve the energy with half-weight ends to rounding
    energies = _energies(grid, 1.0)
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    assert drift < 1e-12
    # zero-gradient boundary: one-sided slope stays small relative to interior
    edge = np.abs(grid.snapshots[-1][1] - grid.snapshots[-1][0])
    interior = np.max(np.abs(np.diff(grid.snapshots[-1])))
    assert edge <= interior


def test_fit_decay_rate_synthetic():
    ts = np.arange(0, 11) * 0.5
    rate = fit_decay_rate(ts, np.log(3.0) - 0.01 * ts)
    assert abs(rate + 0.01) < 1e-4


def test_fit_decay_rate_undamped_zero():
    grid = SimGrid(0.0, 100.0, 512, 0.1, 400, bc="periodic", snapshot_stride=40)
    simulate_time_domain(grid, 1.0, 0.0, 0.0, initial=WavePacket(50.0, 8.0, 0.5))
    rate = fit_decay_rate(grid.times[1:], np.log(grid.l2_norms()[1:]))
    assert abs(rate) < 1e-3


def test_fit_decay_rate_underflowing_times_raise():
    # squares of these times underflow to zero: the fit has no scale, so it raises, not warns
    ts = np.arange(1, 4) * 1e-300
    with pytest.raises(FloatingPointError):
        fit_decay_rate(ts, np.zeros(3))

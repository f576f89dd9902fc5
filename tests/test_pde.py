"""Frequency-domain ODEs, variable change, and the time-domain simulator."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from exocalc.dispersion import plane_wave_rates
from exocalc.pde import (
    InstabilityError,
    SimGrid,
    WavePacket,
    change_of_variable,
    fit_decay_rate,
    inverse_change_of_variable,
    simulate_time_domain,
    solve_ode_x,
    solve_ode_y,
)


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
    sol = solve_ode_x(1.7, 1.0, 0.05, 0.2, domain=(0.0, 2.0), bc=(0.3 + 0.1j, -0.4))
    assert sol.phi[0] == pytest.approx(0.3 + 0.1j, abs=1e-10)
    assert sol.phi[-1] == pytest.approx(-0.4, abs=1e-8)
    assert sol.stencil_residual() < 1e-3  # second-order stencil floor


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
    for dt in (0.2, 0.0, -0.1):  # dx = 0.15625
        grid = SimGrid(0.0, 10.0, 64, dt, 16, bc="periodic")
        with pytest.raises(ValueError):
            simulate_time_domain(grid, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("stride", [1, 2, 3, 16, 17, 40])
def test_snapshot_times_predict_stored_times(stride):
    grid = SimGrid(0.0, 10.0, 64, 0.1, 17, bc="periodic", snapshot_stride=stride)
    planned = grid.snapshot_times()
    simulate_time_domain(grid, 1.0, 0.0, 0.0)
    assert planned.tolist() == grid.times.tolist()
    assert len(grid.snapshots) == len(grid.energies) == 17 // stride + 1
    if stride == 1:
        assert grid.times[1] == 0.1  # step 1 is stored like every other step


@pytest.mark.parametrize("stride", [0, -1])
def test_snapshot_stride_below_one_rejected(stride):
    with pytest.raises(ValueError):
        SimGrid(0.0, 10.0, 64, 0.1, 17, bc="periodic", snapshot_stride=stride)


def test_energy_conserved_undamped():
    grid = SimGrid(0.0, 100.0, 1024, 0.02, 1000, bc="periodic", snapshot_stride=100)
    simulate_time_domain(grid, 1.0, 0.0, 0.0, initial=WavePacket(50.0, 8.0, 0.5))
    drift = np.max(np.abs(grid.energies - grid.energies[0])) / grid.energies[0]
    assert drift < 1e-3


def test_damping_rate_matches_mode_analysis():
    td = 0.02
    grid = SimGrid(0.0, 200.0, 1024, 0.16, 2048, bc="periodic", snapshot_stride=64)
    simulate_time_domain(grid, 1.0, td, 0.0, initial=WavePacket(100.0, 12.0, 0.5))
    rate = fit_decay_rate(grid, (float(grid.times[1]), float(grid.times[-1])))
    expect = abs(plane_wave_rates(0.5, 1.0, td, 0.0).imag)
    assert abs(abs(rate) - expect) / expect < 0.02


def test_left_right_movers_opposite_rates():
    rates = {}
    for key, k0 in (("plus", 1.0), ("minus", -1.0)):
        grid = SimGrid(0.0, 200.0, 1024, 0.16, 1024, bc="periodic", snapshot_stride=64)
        simulate_time_domain(grid, 1.0, 0.0, 0.02, initial=WavePacket(100.0, 10.0, k0))
        rates[key] = fit_decay_rate(grid, (float(grid.times[1]), float(grid.times[-1])))
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
        rate = fit_decay_rate(grid, (4.0, 316.0))
        errs.append(abs(abs(rate) - 0.025))
    assert 3.0 < errs[0] / errs[1] < 5.5


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


def test_x_term_runs_and_warns_out_of_scale():
    grid = SimGrid(0.0, 40.0, 256, 0.1, 64, bc="dirichlet", snapshot_stride=16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate_time_domain(
            grid, 1.0, 0.02, 0.0, include_x_term=True, initial=WavePacket(20.0, 3.0, 0.8)
        )
    assert any("validity" in str(w.message) for w in caught)
    assert np.isfinite(grid.snapshots[-1]).all()


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
    grid = SimGrid(0.0, 100.0, 512, 0.1, 400, bc="neumann", snapshot_stride=50)
    simulate_time_domain(grid, 1.0, 0.0, 0.0, initial=WavePacket(50.0, 6.0, 0.8))
    assert np.isfinite(grid.snapshots).all()
    # mirrored ghosts keep the discrete energy drift at the stencil level
    drift = np.max(np.abs(grid.energies - grid.energies[0])) / grid.energies[0]
    assert drift < 1e-2
    # zero-gradient boundary: one-sided slope stays small relative to interior
    edge = np.abs(grid.snapshots[-1][1] - grid.snapshots[-1][0])
    interior = np.max(np.abs(np.diff(grid.snapshots[-1])))
    assert edge <= interior


def test_fit_decay_rate_synthetic():
    grid = SimGrid(0.0, 10.0, 64, 0.05, 100, bc="periodic", snapshot_stride=10)
    ts = np.arange(0, 11) * 0.5
    xs = grid.xs()
    grid.times = ts
    grid.snapshots = np.array(
        [np.exp(-0.01 * t) * np.exp(1j * (0.7 * t - xs)) for t in ts]
    )
    rate = fit_decay_rate(grid, (0.0, 5.0))
    assert abs(rate + 0.01) < 1e-4


def test_fit_decay_rate_undamped_zero():
    grid = SimGrid(0.0, 100.0, 512, 0.1, 400, bc="periodic", snapshot_stride=40)
    simulate_time_domain(grid, 1.0, 0.0, 0.0, initial=WavePacket(50.0, 8.0, 0.5))
    rate = fit_decay_rate(grid, (float(grid.times[1]), float(grid.times[-1])))
    assert abs(rate) < 1e-3


def test_fit_decay_rate_errors():
    grid = SimGrid(0.0, 10.0, 64, 0.05, 100, bc="periodic")
    with pytest.raises(ValueError):
        fit_decay_rate(grid, (0.0, 1.0))  # no history
    grid.times = np.array([0.0, 1.0, 2.0, 3.0])
    grid.snapshots = np.zeros((4, 64), dtype=complex)
    with pytest.raises(ValueError):
        fit_decay_rate(grid, (0.0, 3.0))  # zero amplitude
    grid.snapshots = np.ones((4, 64), dtype=complex)
    with pytest.raises(ValueError):
        fit_decay_rate(grid, (10.0, 20.0))  # empty window

"""Allocating reference for the time-domain leapfrog.

A test oracle: the seeding and the step loop of
:func:`exocalc.pde.simulate_time_domain` written the plain way, with every
temporary allocated per step. The explicit update pads the field with
``np.concatenate`` and the x-term update builds its band and calls
``scipy.linalg.solve_banded``, and the staggered energy takes its forward
differences with ``np.roll`` and ``np.diff``. It shares with the library only
the packet, the plane-wave rates and the abort threshold, so a step kernel
rewritten for speed can be compared with it bit for bit.
"""

from __future__ import annotations

import numpy as np

from exocalc.dispersion import plane_wave_rates
from exocalc.pde import AMPLITUDE_ABORT, InstabilityError, WavePacket


def _pad(phi, bc):
    if bc == "periodic":
        return np.concatenate([phi[-1:], phi, phi[:1]])
    if bc == "dirichlet":
        zero = np.zeros(1, dtype=phi.dtype)
        return np.concatenate([zero, phi, zero])
    return np.concatenate([phi[1:2], phi, phi[-2:-1]])  # neumann mirror


def _staggered_energy(phi0, phi1, dt, dx, m, bc):
    vel = (phi1 - phi0) / dt
    if bc == "periodic":
        d0 = (np.roll(phi0, -1) - phi0) / dx
        d1 = (np.roll(phi1, -1) - phi1) / dx
    else:
        d0 = np.diff(phi0) / dx
        d1 = np.diff(phi1) / dx
    kinetic = 0.5 * np.sum(np.abs(vel) ** 2)
    gradient = 0.5 * np.sum((np.conj(d1) * d0).real)
    mass = 0.5 * m * m * np.sum((np.conj(phi1) * phi0).real)
    return float((kinetic + gradient + mass) * dx)


def _first_diff(phi, dx, bc):
    p = _pad(phi, bc)
    return (p[2:] - p[:-2]) / (2 * dx)


def _second_diff(phi, dx, bc):
    p = _pad(phi, bc)
    return (p[2:] - 2 * phi + p[:-2]) / (dx * dx)


def _implicit_x_term_step(prev, cur, t_now, xs, dt, dx, m, theta_t, theta_x, bc):
    from scipy.linalg import solve_banded

    n = len(cur)
    a_tt = 1 - 2 * theta_t * t_now
    c_cross = 2 * (theta_x * t_now - theta_t * xs)
    a_xx = -1 + 2 * theta_x * xs

    lap = _second_diff(cur, dx, bc)
    adv = _first_diff(cur, dx, bc)
    prev_shift = (np.pad(prev, 1)[2:] - np.pad(prev, 1)[:-2]) / (4 * dt * dx)

    rhs = (
        a_tt * (2 * cur - prev) / (dt * dt)
        - 0.5 * theta_t * prev / dt
        + c_cross * prev_shift
        - a_xx * lap
        - m * m * cur
        - theta_x * adv
    )
    diag = np.full(n, a_tt / (dt * dt) - 0.5 * theta_t / dt, dtype=complex)
    upper = np.zeros(n, dtype=complex)
    lower = np.zeros(n, dtype=complex)
    upper[1:] = c_cross[:-1] / (4 * dt * dx)
    lower[:-1] = -c_cross[1:] / (4 * dt * dx)
    diag[0] = diag[-1] = 1.0
    upper[1] = 0.0
    lower[-2] = 0.0
    rhs[0] = rhs[-1] = 0.0
    band = np.vstack([upper, diag, lower])
    return solve_banded((1, 1), band, rhs, check_finite=False)


def reference_simulate(grid, m, theta_t, theta_x, include_x_term=False, initial=None):
    """``(times, snapshots, energies)`` of the run ``simulate_time_domain``
    makes on ``grid``; raises :class:`InstabilityError` where it does."""
    if initial is None:
        initial = WavePacket(
            center=0.5 * (grid.x_min + grid.x_max),
            width=0.1 * (grid.x_max - grid.x_min),
            wavenumber=0.0,
        )
    xs = grid.xs()
    dx, dt = grid.dx, grid.dt
    nx, nt = grid.n_x, grid.n_t
    bc = grid.bc
    if include_x_term and bc != "dirichlet":
        raise ValueError("the point-dependent term requires dirichlet boundaries")

    phi0 = initial.sample(xs).astype(complex)
    if bc == "dirichlet":
        phi0[0] = phi0[-1] = 0.0
    if bc == "periodic":
        kappa = 2 * np.pi * np.fft.fftfreq(nx, d=dx)
        omega = plane_wave_rates(-kappa, m, theta_t, theta_x)
        phi_t0 = np.fft.ifft(1j * omega * np.fft.fft(phi0))
    else:
        omega0 = complex(plane_wave_rates(-initial.wavenumber, m, theta_t, theta_x))
        phi_t0 = 1j * omega0 * phi0

    phi_tt0 = (
        _second_diff(phi0, dx, bc)
        - m * m * phi0
        + theta_t * phi_t0
        - theta_x * _first_diff(phi0, dx, bc)
    )
    if include_x_term:
        phi_tt0 += (
            2 * theta_t * xs * _first_diff(phi_t0, dx, bc)
            - 2 * theta_x * xs * _second_diff(phi0, dx, bc)
        )
    phi1 = phi0 + dt * phi_t0 + 0.5 * dt * dt * phi_tt0
    if bc == "dirichlet":
        phi1[0] = phi1[-1] = 0.0

    stored_t, stored, energies = [], [], []

    def store(step, snap, pair):
        if step % grid.snapshot_stride == 0:
            stored_t.append(step * dt)
            stored.append(snap.copy())
            energies.append(_staggered_energy(pair[0], pair[1], dt, dx, m, bc))

    store(0, phi0, (phi0, phi1))
    store(1, phi1, (phi0, phi1))

    prev, cur = phi0, phi1
    denom = 1 - 0.5 * theta_t * dt
    for n in range(1, nt):
        if include_x_term:
            nxt = _implicit_x_term_step(prev, cur, n * dt, xs, dt, dx, m, theta_t, theta_x, bc)
        else:
            lap = _second_diff(cur, dx, bc)
            adv = _first_diff(cur, dx, bc)
            nxt = (
                2 * cur
                - (1 + 0.5 * theta_t * dt) * prev
                + dt * dt * (lap - m * m * cur - theta_x * adv)
            ) / denom
        if bc == "dirichlet":
            nxt[0] = nxt[-1] = 0.0
        amp = float(np.max(np.abs(nxt)))
        if not np.isfinite(amp) or amp > AMPLITUDE_ABORT:
            raise InstabilityError(n + 1, (n + 1) * dt, amp)
        prev, cur = cur, nxt
        store(n + 1, cur, (prev, cur))

    return np.array(stored_t), np.array(stored), np.array(energies)

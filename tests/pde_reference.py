"""Allocating reference for the time-domain leapfrog, and its energy law.

A test oracle: the seeding and the step loop of
:func:`exocalc.pde.simulate_time_domain` written the plain way, with every
temporary allocated per step. The explicit update pads the field with
``np.concatenate`` and the x-term update builds its band and calls
``scipy.linalg.solve_banded``. It shares with the library only the packet,
the plane-wave rates and the abort threshold, so a step kernel rewritten for
speed can be compared with it bit for bit.

The library computes no energy. :func:`staggered_energies` takes it from the
snapshots of a stride-1 run, and :func:`balance_residuals` checks the
discrete balance law the explicit leapfrog obeys for every theta,

    E^{n+1/2} - E^{n-1/2} = dt dx (th_t sum |v^n|^2 - th_x Re sum conj(v^n) D0 phi^n),

with ``v^n = (phi^{n+1} - phi^{n-1}) / (2 dt)`` and ``D0`` the centred
difference. Both sums weigh a neumann grid's two mirrored end points by 1/2,
the summation-by-parts norm of the stencil (Strand, J. Comput. Phys. 110,
1994); at full weight the law misses by far more than rounding there.
"""

from __future__ import annotations

import numpy as np

from exocalc.dispersion import plane_wave_rates
from exocalc.pde import AMPLITUDE_ABORT, InstabilityError


def _pad(phi, bc):
    """Ghost-pad the last axis of ``phi``."""
    if bc == "periodic":
        return np.concatenate([phi[..., -1:], phi, phi[..., :1]], axis=-1)
    if bc == "dirichlet":
        zero = np.zeros_like(phi[..., :1])
        return np.concatenate([zero, phi, zero], axis=-1)
    return np.concatenate([phi[..., 1:2], phi, phi[..., -2:-1]], axis=-1)  # neumann mirror


def _first_diff(phi, dx, bc):
    p = _pad(phi, bc)
    return (p[..., 2:] - p[..., :-2]) / (2 * dx)


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


def reference_step(prev, cur, dx, dt, m, theta_t, theta_x, bc):
    """The explicit leapfrog's level ``n + 1`` from the unpadded levels
    ``prev`` (``n - 1``) and ``cur`` (``n``), before any boundary pin."""
    lap = _second_diff(cur, dx, bc)
    adv = _first_diff(cur, dx, bc)
    return (
        2 * cur
        - (1 + 0.5 * theta_t * dt) * prev
        + dt * dt * (lap - m * m * cur - theta_x * adv)
    ) / (1 - 0.5 * theta_t * dt)


def reference_simulate(grid, m, theta_t, theta_x, include_x_term=False, *, initial):
    """``(times, snapshots)`` of the run ``simulate_time_domain``
    makes on ``grid``; raises :class:`InstabilityError` where it does."""
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

    stored_t, stored = [], []

    def probe_and_store(step, snap):
        amp = float(np.max(np.abs(snap)))
        if not np.isfinite(amp) or amp > AMPLITUDE_ABORT:
            raise InstabilityError(step, step * dt, amp)
        if step % grid.snapshot_stride == 0:
            stored_t.append(step * dt)
            stored.append(snap.copy())

    probe_and_store(0, phi0)
    probe_and_store(1, phi1)

    prev, cur = phi0, phi1
    for n in range(1, nt):
        if include_x_term:
            nxt = _implicit_x_term_step(prev, cur, n * dt, xs, dt, dx, m, theta_t, theta_x, bc)
        else:
            nxt = reference_step(prev, cur, dx, dt, m, theta_t, theta_x, bc)
        if bc == "dirichlet":
            nxt[0] = nxt[-1] = 0.0
        prev, cur = cur, nxt
        probe_and_store(n + 1, cur)

    return np.array(stored_t), np.array(stored)


def _norm_weights(n_x, bc):
    """Point weights of the energy norm: 1/2 on a neumann grid's mirrored ends."""
    w = np.ones(n_x)
    if bc == "neumann":
        w[0] = w[-1] = 0.5
    return w


def staggered_energies(snapshots, dt, dx, m, bc):
    """``E^{k+1/2}`` from rows ``k`` and ``k + 1`` of a stride-1 run's
    ``snapshots``, for every ``k``; a periodic grid's last forward difference
    wraps around."""
    w = _norm_weights(snapshots.shape[1], bc)
    if bc == "periodic":
        d = (np.roll(snapshots, -1, axis=1) - snapshots) / dx
    else:
        d = np.diff(snapshots, axis=1) / dx
    phi0, phi1, d0, d1 = snapshots[:-1], snapshots[1:], d[:-1], d[1:]
    vel = (phi1 - phi0) / dt
    kinetic = 0.5 * np.sum(w * np.abs(vel) ** 2, axis=1)
    gradient = 0.5 * np.sum((np.conj(d1) * d0).real, axis=1)
    mass = 0.5 * m * m * np.sum(w * (np.conj(phi1) * phi0).real, axis=1)
    return (kinetic + gradient + mass) * dx


def balance_residuals(snapshots, dt, dx, m, theta_t, theta_x, bc):
    """``E^{n+1/2} - E^{n-1/2}`` minus the theta source of step ``n``, for
    every step ``n`` with both neighbours among a stride-1 run's ``snapshots``."""
    w = _norm_weights(snapshots.shape[1], bc)
    vel = (snapshots[2:] - snapshots[:-2]) / (2 * dt)
    adv = _first_diff(snapshots[1:-1], dx, bc)
    pumped = theta_t * np.sum(w * np.abs(vel) ** 2, axis=1)
    carried = theta_x * np.sum(w * (np.conj(vel) * adv).real, axis=1)
    return np.diff(staggered_energies(snapshots, dt, dx, m, bc)) - dt * dx * (pumped - carried)

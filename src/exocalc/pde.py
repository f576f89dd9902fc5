"""Configuration-space dynamics: frequency-domain ODEs and a 1+1D simulator.

The single-frequency reduction of the deformed wave equation is a
constant-coefficient second-order ODE in ``x``; an exponential change of
variable removes its first-derivative term.  The time-domain integrator
is a centered leapfrog for

    phi_tt - phi_xx + m^2 phi - th_t phi_t + th_x phi_x = 0

whose modes grow or decay at the rate ``|th_t| / 2`` (which sign grows
depends on the propagation direction and the sign conventions fixed in
:mod:`exocalc.clifford`; the simulator records the realized sign, it does
not assert one).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dispersion import plane_wave_rates


class InstabilityError(RuntimeError):
    """The discrete field amplitude blew past the abort threshold."""

    def __init__(self, step: int, time: float, amplitude: float):
        super().__init__(
            f"instability detected at step {step} (t = {time:.6g}): "
            f"max |phi| = {amplitude:.3e}"
        )
        self.step = step
        self.time = time
        self.amplitude = amplitude


AMPLITUDE_ABORT = 1e12
CFL_FACTOR = 0.9

BOUNDARY_TAGS = ("periodic", "dirichlet", "neumann")


@dataclass
class SimGrid:
    """Discretized 1+1D field history.

    Construct with the grid geometry; :func:`simulate_time_domain` fills
    ``times``, ``snapshots`` and ``energies`` (stored every
    ``snapshot_stride`` steps).
    """

    x_min: float
    x_max: float
    n_x: int
    dt: float
    n_t: int
    bc: str = "dirichlet"
    snapshot_stride: int = 16
    times: np.ndarray | None = None
    snapshots: np.ndarray | None = None
    energies: np.ndarray | None = None

    def __post_init__(self):
        if self.bc not in BOUNDARY_TAGS:
            raise ValueError(f"unknown boundary tag {self.bc!r}")
        if self.n_x < 8 or self.n_t < 2:
            raise ValueError("grid too small")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot stride {self.snapshot_stride} must be >= 1")

    @property
    def dx(self) -> float:
        span = self.x_max - self.x_min
        return span / self.n_x if self.bc == "periodic" else span / (self.n_x - 1)

    def xs(self) -> np.ndarray:
        if self.bc == "periodic":
            return self.x_min + self.dx * np.arange(self.n_x)
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def l2_norms(self) -> np.ndarray:
        """``||phi(t, .)||_2`` of every stored snapshot."""
        return np.sqrt(np.sum(np.abs(self.snapshots) ** 2, axis=1) * self.dx)

    def snapshot_times(self) -> np.ndarray:
        """The ``times`` :func:`simulate_time_domain` stores: every step
        with ``step % snapshot_stride == 0``, step 0 included."""
        return np.arange(0, self.n_t + 1, self.snapshot_stride) * self.dt

    def check_cfl(self):
        if not self.dt > 0:
            raise ValueError(f"time step {self.dt} must be positive")
        if self.dt > CFL_FACTOR * self.dx:
            raise ValueError(
                f"time step {self.dt} violates dt <= {CFL_FACTOR} * dx = "
                f"{CFL_FACTOR * self.dx:.6g}"
            )


@dataclass(frozen=True)
class WavePacket:
    """Gaussian-modulated plane-wave initial condition."""

    center: float
    width: float
    wavenumber: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"packet width must be positive, got {self.width!r}")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        env = self.amplitude * np.exp(-((xs - self.center) ** 2) / (2 * self.width**2))
        return env * np.exp(1j * self.wavenumber * xs)


def _pad(phi: np.ndarray, bc: str) -> np.ndarray:
    if bc == "periodic":
        return np.concatenate([phi[-1:], phi, phi[:1]])
    if bc == "dirichlet":
        zero = np.zeros(1, dtype=phi.dtype)
        return np.concatenate([zero, phi, zero])
    return np.concatenate([phi[1:2], phi, phi[-2:-1]])  # neumann mirror


def _first_diff(phi: np.ndarray, dx: float, bc: str) -> np.ndarray:
    p = _pad(phi, bc)
    return (p[2:] - p[:-2]) / (2 * dx)


def _second_diff(phi: np.ndarray, dx: float, bc: str) -> np.ndarray:
    p = _pad(phi, bc)
    return (p[2:] - 2 * phi + p[:-2]) / (dx * dx)


def _staggered_energy(phi0, phi1, dt, dx, m, bc) -> float:
    """Discrete energy exactly conserved by the undamped leapfrog update."""
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


def simulate_time_domain(
    grid: SimGrid,
    m: float,
    theta_t: float,
    theta_x: float,
    include_x_term: bool = False,
    initial: WavePacket | None = None,
) -> SimGrid:
    """Leapfrog integration of the damped wave equation; fills ``grid``.

    The first step is seeded at second order with per-mode frequencies
    (exact FFT seeding for periodic boundaries, carrier-frequency seeding
    otherwise), so a pure mode evolves on a single temporal branch and the
    amplitude envelope is a clean exponential.

    The point-dependent second-derivative term is off by default (its
    momentum-side counterpart is the regime where the box kernel is
    negligible); enabling it switches to an implicit banded update and
    warns when ``max(|t|, |x|) * ||grad theta||`` is large.
    """
    grid.check_cfl()
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

    if include_x_term:
        extent = max(abs(grid.x_min), abs(grid.x_max), dt * nt)
        if extent * math.hypot(theta_t, theta_x) > 0.1:
            warnings.warn(
                "point-dependent term enabled outside its validity scale "
                "(extent * |grad theta| > 0.1)",
                stacklevel=2,
            )
        if bc != "dirichlet":
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
    phi1 = phi0 + dt * phi_t0 + 0.5 * dt * dt * phi_tt0
    if bc == "dirichlet":
        phi1[0] = phi1[-1] = 0.0

    stored_t, stored, energies = [], [], []

    def store(step, snap, pair):
        if step % grid.snapshot_stride == 0:
            stored_t.append(step * dt)
            stored.append(snap.copy())
            energies.append(_staggered_energy(pair[0], pair[1], dt, dx, m, bc))

    # the staggered energy lives on consecutive-step pairs
    store(0, phi0, (phi0, phi1))
    store(1, phi1, (phi0, phi1))

    prev, cur = phi0, phi1
    denom = 1 - 0.5 * theta_t * dt
    for n in range(1, nt):
        if include_x_term:
            nxt = _implicit_x_term_step(
                prev, cur, n * dt, xs, dt, dx, m, theta_t, theta_x, bc
            )
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

    grid.times = np.array(stored_t)
    grid.snapshots = np.array(stored)
    grid.energies = np.array(energies)
    return grid


def _implicit_x_term_step(prev, cur, t_now, xs, dt, dx, m, theta_t, theta_x, bc):
    """One implicit step with the point-dependent second-derivative term on.

    The mixed time-space derivative couples neighbouring points of the new
    level, giving a tridiagonal complex system per step.
    """
    from scipy.linalg import solve_banded  # scipy loads only on the paths that call it

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
    # dirichlet rows pin the boundary values
    diag[0] = diag[-1] = 1.0
    upper[1] = 0.0
    lower[-2] = 0.0
    rhs[0] = rhs[-1] = 0.0
    band = np.vstack([upper, diag, lower])
    # non-finite values pass through to the caller's amplitude probe
    return solve_banded((1, 1), band, rhs, check_finite=False)


def fit_decay_rate(grid: SimGrid, window: tuple) -> float:
    """Least-squares slope of ``log ||phi(t, .)||_2`` over a time window."""
    if grid.times is None or grid.snapshots is None:
        raise ValueError("grid holds no simulation history")
    t_a, t_b = window
    mask = (grid.times >= t_a) & (grid.times <= t_b)
    if int(mask.sum()) < 3:
        raise ValueError("window selects fewer than 3 stored snapshots")
    norms = grid.l2_norms()[mask]
    if np.any(norms <= 0):
        raise ValueError("non-positive amplitude inside the fit window")
    slope = np.polyfit(grid.times[mask], np.log(norms), 1)[0]
    return float(slope)


@dataclass
class OdeSolution:
    """Sampled solution of one frequency-domain boundary-value problem."""

    x: np.ndarray
    phi: np.ndarray
    phi_closed: np.ndarray | None
    char_roots: tuple | None
    _residual_fn: Callable
    _numeric_eval: Callable

    def at(self, points) -> np.ndarray:
        return self._numeric_eval(np.asarray(points, dtype=float))

    def stencil_residual(self) -> float:
        """Max centered-stencil residual of the sampled ODE at interior points."""
        return self._residual_fn(self.x, self.phi)


# samples per solution, and the shooting integrator's tolerances
ODE_SAMPLES = 201
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12


def _shoot_linear(rhs_coeff: Callable, domain, bc):
    """Linear shooting by superposition of two basis initial-value solutions.

    ``rhs_coeff(x)`` returns ``(b(x), q(x))`` for ``phi'' = b phi' + q phi``.
    """
    from scipy.integrate import solve_ivp  # scipy loads only on the paths that call it

    x0, x1 = float(domain[0]), float(domain[1])
    if not x1 > x0:
        raise ValueError("empty domain")

    def rhs(x, y):
        b, q = rhs_coeff(x)
        re_p, im_p, re_d, im_d = y
        acc = complex(b) * complex(re_d, im_d) + complex(q) * complex(re_p, im_p)
        return [re_d, im_d, acc.real, acc.imag]

    def integrate(y0):
        sol = solve_ivp(
            rhs,
            (x0, x1),
            y0,
            method="RK45",
            dense_output=True,
            rtol=ODE_RTOL,
            atol=ODE_ATOL,
        )
        if not sol.success:
            raise RuntimeError(f"integration failed: {sol.message}")
        return sol

    sol_u = integrate([1.0, 0.0, 0.0, 0.0])
    sol_w = integrate([0.0, 0.0, 1.0, 0.0])

    def value(sol, pts):
        y = sol.sol(pts)
        return y[0] + 1j * y[1]

    a_val, b_val = complex(bc[0]), complex(bc[1])
    probe = np.linspace(x0, x1, 33)
    w_scale = float(np.max(np.abs(value(sol_w, probe))))
    w_end = complex(value(sol_w, np.array([x1]))[0])
    u_end = complex(value(sol_u, np.array([x1]))[0])
    # a far-end zero of the basis solution (conjugate point) makes the fit
    # amplify boundary data beyond the integration accuracy
    if abs(w_end) < 1e-8 * max(w_scale, 1e-300):
        raise ValueError("boundary fit singular: basis solution vanishes at the far end")
    c2 = (b_val - a_val * u_end) / w_end

    def evaluate(pts):
        return a_val * value(sol_u, pts) + c2 * value(sol_w, pts)

    return evaluate


def _closed_form_two_exp(r_plus, r_minus, domain, bc):
    """Fit ``c1 e^{r+ x} + c2 e^{r- x}`` (or the degenerate branch) to boundary data.

    The two-exponential fit loses about ``-log10(|r+ - r-| * span)`` digits
    as the roots merge; below that scale the ``(c1 + c2 x) e^{r x}`` branch
    is the accurate representation, so the switch happens at
    ``|r+ - r-| * span <= 1e-6`` where both branches are good.
    """
    x0, x1 = float(domain[0]), float(domain[1])
    a_val, b_val = complex(bc[0]), complex(bc[1])
    span = x1 - x0
    if abs(r_plus - r_minus) * span <= 1e-6:
        r = 0.5 * (r_plus + r_minus)
        c1 = a_val * cmath.exp(-r * x0)
        c2 = (b_val * cmath.exp(-r * x1) - c1) / span

        def evaluate(pts):
            pts = np.asarray(pts, dtype=float)
            return (c1 + c2 * (pts - x0)) * np.exp(r * pts)

        return evaluate
    mat = np.array(
        [
            [cmath.exp(r_plus * x0), cmath.exp(r_minus * x0)],
            [cmath.exp(r_plus * x1), cmath.exp(r_minus * x1)],
        ],
        dtype=complex,
    )
    c1, c2 = np.linalg.solve(mat, np.array([a_val, b_val], dtype=complex))

    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        return c1 * np.exp(r_plus * pts) + c2 * np.exp(r_minus * pts)

    return evaluate


def solve_ode_x(
    omega: complex,
    m: float,
    alpha: float,
    beta: float,
    domain: tuple = (0.0, 1.0),
    bc: tuple = (1.0 + 0.0j, 0.0j),
) -> OdeSolution:
    """Two-point solution of ``-phi'' + beta phi' + (m^2 - w^2 + w a) phi = 0``.

    Solved twice: adaptive Runge-Kutta shooting against the boundary data,
    and the exact characteristic-root form
    ``c1 e^{r+ x} + c2 e^{r- x}``, ``r+- = (beta +- sqrt(beta^2 + 4q))/2``,
    fitted to the same data (equal-root inputs switch to the
    ``x e^{r x}`` branch).
    """
    q = m * m - omega * omega + omega * alpha

    numeric = _shoot_linear(lambda x: (beta, q), domain, bc)
    disc = cmath.sqrt(beta * beta + 4 * q)
    r_plus = (beta + disc) / 2
    r_minus = (beta - disc) / 2
    closed = _closed_form_two_exp(r_plus, r_minus, domain, bc)

    xs = np.linspace(domain[0], domain[1], ODE_SAMPLES)

    def residual_fn(x, phi, beta=beta, q=q):
        h = x[1] - x[0]
        second = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / (h * h)
        first = (phi[2:] - phi[:-2]) / (2 * h)
        res = -second + beta * first + q * phi[1:-1]
        return float(np.max(np.abs(res)))

    return OdeSolution(
        x=xs,
        phi=numeric(xs),
        phi_closed=closed(xs),
        char_roots=(r_plus, r_minus),
        _residual_fn=residual_fn,
        _numeric_eval=numeric,
    )


def change_of_variable(x, beta: float):
    """Map ``y(x) = (e^{beta x} - 1)/beta`` with ``y = x`` in the flat limit.

    ``expm1`` keeps the small-``beta x`` regime accurate; ``y(0) = 0``
    fixes the free integration constant.  Strictly increasing for all
    ``beta``.
    """
    if beta == 0:
        return x
    return np.expm1(beta * np.asarray(x, dtype=float)) / beta if np.ndim(x) else math.expm1(beta * x) / beta


def inverse_change_of_variable(y, beta: float):
    """Inverse map ``x(y) = log(1 + beta y)/beta``."""
    if beta == 0:
        return y
    return np.log1p(beta * np.asarray(y, dtype=float)) / beta if np.ndim(y) else math.log1p(beta * y) / beta


def solve_ode_y(
    omega: complex,
    m: float,
    alpha: float,
    beta: float,
    domain: tuple = (0.0, 1.0),
    bc: tuple = (1.0 + 0.0j, 0.0j),
    linearized: bool = False,
) -> OdeSolution:
    """Same boundary-value problem after the exponential change of variable.

    Solves ``phi_yy + (w^2 - w a - m^2) C(y) phi = 0`` on the mapped
    domain with the exact coefficient ``C = e^{-2 beta x(y)}`` (using the
    exact inverse map, not its expansion); ``linearized=True`` switches to
    the first-order comparison coefficient ``1 - 2 beta x(y)``, which
    deviates from the exact mode at second order in ``beta x``.
    """
    big_q = omega * omega - omega * alpha - m * m
    y0 = change_of_variable(domain[0], beta)
    y1 = change_of_variable(domain[1], beta)

    def coeff(y):
        x_of_y = inverse_change_of_variable(y, beta)
        shape = (1 - 2 * beta * x_of_y) if linearized else math.exp(-2 * beta * x_of_y)
        return (0.0, -big_q * shape)

    numeric = _shoot_linear(coeff, (y0, y1), bc)
    ys = np.linspace(y0, y1, ODE_SAMPLES)

    def residual_fn(y, phi, beta=beta, big_q=big_q, linearized=linearized):
        h = y[1] - y[0]
        second = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / (h * h)
        x_mid = inverse_change_of_variable(y[1:-1], beta)
        shape = (1 - 2 * beta * x_mid) if linearized else np.exp(-2 * beta * x_mid)
        res = second + big_q * shape * phi[1:-1]
        return float(np.max(np.abs(res)))

    return OdeSolution(
        x=ys,
        phi=numeric(ys),
        phi_closed=None,
        char_roots=None,
        _residual_fn=residual_fn,
        _numeric_eval=numeric,
    )

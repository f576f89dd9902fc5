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

from .core import DegenerateParameterError, InstabilityError
from .dispersion import plane_wave_rates


AMPLITUDE_ABORT = 1e12
CFL_FACTOR = 0.9
# a level whose float parts' squares sum to at most this has every |z| < AMPLITUDE_ABORT
_SUMSQ_GATE = (AMPLITUDE_ABORT / 1.5) ** 2

BOUNDARY_TAGS = ("periodic", "dirichlet", "neumann")


def check_x_term_boundary(bc: str):
    """The point-dependent term's implicit update runs on dirichlet boundaries only."""
    if bc != "dirichlet":
        raise ValueError("the point-dependent term requires dirichlet boundaries")


@dataclass
class SimGrid:
    """Discretized 1+1D field history.

    Construct with the grid geometry; :func:`simulate_time_domain` fills
    ``times`` and ``snapshots`` only (stored every ``snapshot_stride``
    steps). Construction raises ``ValueError`` unless
    ``bc`` is a known boundary tag, ``x_max > x_min``, ``n_x >= 8``,
    ``n_t >= 2``, ``snapshot_stride >= 1``, ``dt > 0`` and the CFL bound
    ``dt <= CFL_FACTOR * dx`` hold, so every grid is a valid one.
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

    def __post_init__(self):
        if self.bc not in BOUNDARY_TAGS:
            raise ValueError(f"unknown boundary tag {self.bc!r}")
        if not self.x_max > self.x_min:
            raise ValueError(
                f"grid interval [{self.x_min}, {self.x_max}] is empty: x_max must exceed x_min"
            )
        if self.n_x < 8 or self.n_t < 2:
            raise ValueError("grid too small")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot stride {self.snapshot_stride} must be >= 1")
        if not self.dt > 0:
            raise ValueError(f"time step {self.dt} must be positive")
        if self.dt > CFL_FACTOR * self.dx:
            raise ValueError(
                f"time step {self.dt} violates dt <= {CFL_FACTOR} * dx = "
                f"{CFL_FACTOR * self.dx:.6g}"
            )

    @property
    def dx(self) -> float:
        span = self.x_max - self.x_min
        return span / self.n_x if self.bc == "periodic" else span / (self.n_x - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x, endpoint=self.bc != "periodic")

    def l2_norms(self) -> np.ndarray:
        """``||phi(t, .)||_2`` of every stored snapshot."""
        return np.sqrt(np.sum(np.abs(self.snapshots) ** 2, axis=1) * self.dx)

    def snapshot_times(self) -> np.ndarray:
        """The ``times`` :func:`simulate_time_domain` stores: every step
        with ``step % snapshot_stride == 0``, step 0 included."""
        return np.arange(0, self.n_t + 1, self.snapshot_stride) * self.dt


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
        # a tiny width overflows the exponent to -inf, whose exp is the right 0
        with np.errstate(over="ignore"):
            env = self.amplitude * np.exp(-((xs - self.center) ** 2) / (2 * self.width**2))
        return env * np.exp(1j * self.wavenumber * xs)


def _apply_bc(buf: np.ndarray, bc: str):
    """Impose ``bc`` on the ghost-padded level ``buf`` with interior ``buf[1:-1]``."""
    if bc == "periodic":
        buf[0], buf[-1] = buf[-2], buf[1]
    elif bc == "neumann":  # mirror
        buf[0], buf[-1] = buf[2], buf[-3]
    else:  # dirichlet pins both end points; its ghosts are zero from allocation
        buf[1] = buf[-2] = 0


def _padded(phi: np.ndarray, bc: str) -> np.ndarray:
    buf = np.zeros(len(phi) + 2, dtype=complex)
    buf[1:-1] = phi
    _apply_bc(buf, bc)
    return buf


def _advection(p, inv_two_dx, out):
    """Centered ``(right - left) / two_dx`` of a ghost-padded field, on its float
    view ``p``, written into ``out``; ``inv_two_dx`` is ``1 / two_dx``."""
    np.subtract(p[4:], p[:-4], out=out)
    np.multiply(out, inv_two_dx, out=out)


# overflow and NaN reach the amplitude probe, which raises InstabilityError; numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def simulate_time_domain(
    grid: SimGrid,
    m: float,
    theta_t: float,
    theta_x: float,
    include_x_term: bool = False,
    *,
    initial: WavePacket,
) -> SimGrid:
    """Leapfrog integration of the damped wave equation; fills ``grid``.

    The first step is seeded at second order with per-mode frequencies
    (exact FFT seeding for periodic boundaries, carrier-frequency seeding
    otherwise), so a pure mode evolves on a single temporal branch and the
    amplitude envelope is a clean exponential.

    The point-dependent second-derivative term is off by default (its
    momentum-side counterpart is the regime where the box kernel is
    negligible); enabling it switches to an implicit tridiagonal update,
    which needs dirichlet boundaries, and warns when
    ``max(|t|, |x|) * ||grad theta||`` is large.

    Only the explicit leapfrog runs on the interleaved float64 view of the
    levels. Both steps are bit-identical to the plain complex array
    expressions (see the note above the steppers).
    """
    xs = grid.xs()
    dx, dt = grid.dx, grid.dt
    nx, nt = grid.n_x, grid.n_t
    bc = grid.bc

    if include_x_term:
        check_x_term_boundary(bc)
        extent = max(abs(grid.x_min), abs(grid.x_max), dt * nt)
        if extent * math.hypot(theta_t, theta_x) > 0.1:
            warnings.warn(
                "point-dependent term enabled outside its validity scale "
                "(extent * |grad theta| > 0.1)",
                stacklevel=3,  # past the errstate decorator's frame
            )

    # the time levels rotate through three ghost-padded buffers
    prev = _padded(initial.sample(xs), bc)
    phi0 = prev[1:-1]
    if bc == "periodic":
        kappa = 2 * np.pi * np.fft.fftfreq(nx, d=dx)
        omega = plane_wave_rates(-kappa, m, theta_t, theta_x)
        phi_t0 = np.fft.ifft(1j * omega * np.fft.fft(phi0))
    else:
        omega0 = complex(plane_wave_rates(-initial.wavenumber, m, theta_t, theta_x))
        phi_t0 = 1j * omega0 * phi0

    # the complex stencil: it runs once, and on the float view it would need the explicit stepper's flags
    _, lap0, adv0 = _complex_stencil(prev[:-2], phi0, prev[2:], dx * dx, 2 * dx)
    phi_tt0 = lap0 - m * m * phi0 + theta_t * phi_t0 - theta_x * adv0
    if include_x_term:  # its own phi_tt at t = 0; the plain one would leave the run first order
        p_t0 = _padded(phi_t0, bc)
        *_, phi_tx0 = _complex_stencil(p_t0[:-2], phi_t0, p_t0[2:], dx * dx, 2 * dx)
        phi_tt0 += 2 * theta_t * xs * phi_tx0 - 2 * theta_x * xs * lap0
    cur = _padded(phi0 + dt * phi_t0 + 0.5 * dt * dt * phi_tt0, bc)

    # every stored level's interior, written in place: one copy of the history
    times = grid.snapshot_times()
    snapshots = np.empty((len(times), nx), dtype=complex)

    def store(step, level):
        if step % grid.snapshot_stride == 0:
            snapshots[step // grid.snapshot_stride] = level[1:-1]

    for step, level in enumerate((prev, cur)):  # the two seeded levels are probed as every step is
        _check_amplitude(level[1:-1], step, dt)
        store(step, level)

    if include_x_term:
        stepper = _x_term_stepper(xs, dx, dt, m, theta_t, theta_x)
    else:
        stepper = _leapfrog_stepper(nx, dx, dt, m, theta_t, theta_x)
    nxt = np.zeros(nx + 2, dtype=complex)
    for n in range(1, nt):
        sumsq = stepper(n, prev, cur, nxt)
        # a dirichlet pin only zeroes two interior points, so the sum still bounds the level
        _apply_bc(nxt, bc)
        _check_amplitude(nxt[1:-1], n + 1, dt, sumsq)
        prev, cur, nxt = cur, nxt, prev
        store(n + 1, cur)

    grid.times, grid.snapshots = times, snapshots
    return grid


def _check_amplitude(field: np.ndarray, step: int, dt: float, sumsq=None):
    """Raise :class:`InstabilityError` when ``max |field|`` is not finite or
    exceeds ``AMPLITUDE_ABORT``.

    ``sumsq`` is the sum of the squares of the field's float parts, as the
    caller computed it; when it is not given, one dot over the float view
    computes it. The exact sum is at least every ``|z|^2``, and the computed
    one lies within ``gamma_n * sum`` of it, ``gamma_n = n u / (1 - n u)``
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    section 3.1). So a field with ``sumsq <= (AMPLITUDE_ABORT / 1.5) ** 2``
    has every ``|z| < AMPLITUDE_ABORT`` and passes without computing a
    modulus. A NaN or inf part makes the sum NaN or inf; any field over the
    gate is judged on the exact ``max |z|``.
    """
    if sumsq is None:
        parts = field.view(np.float64)
        sumsq = parts @ parts
    if sumsq <= _SUMSQ_GATE:
        return
    amp = float(np.max(np.abs(field)))
    if not np.isfinite(amp) or amp > AMPLITUDE_ABORT:
        raise InstabilityError(step, step * dt, amp)


# The steppers below write time level n + 1 into the interior of ``out`` from
# the ghost-padded levels ``prev`` (n - 1) and ``cur`` (n). The x-term one is
# the plain complex expression. The explicit one works on the interleaved
# float64 view of the levels (interior ``[2:-2]``, neighbours ``[4:]`` and
# ``[:-4]``), in place, into scratch arrays allocated once. Every
# coefficient of its update is real, so each complex op of the plain array
# expression becomes one real op over both parts: an add or subtract is one
# already, a real coefficient multiplies both parts, and a division by a real
# ``c`` is a multiply by ``fl(1 / c)``, the reciprocal numpy's complex
# division (Smith's algorithm) forms for a real divisor before it multiplies.
#
# The complex ops differ from these only by the exact-zero cross terms
# ``im * 0`` they add to each part. Adding a zero leaves a nonzero part as it
# is and can only turn a -0 into +0, and a product that underflows stays a
# zero whether numpy fuses that add or not. So of a finite part only the sign
# of a zero can differ. A sum of zeros is -0 only if every term is -0, so a
# part whose leading term ``2 cur`` is +0 or nonzero on both routes comes out
# alike; the cross terms only ever turn that term's -0 into +0. A cross term
# ``0 * inf`` is NaN, so a part that is not finite can differ too. The points
# where the leading term is -0 or a result part is not finite are evaluated
# again with the complex ops of the plain expression, so the result equals
# that expression bit for bit. The stepper looks for such points only when
# its leading term holds a -0 or the sum of squares of the new level's parts
# is not finite, as a part that is not finite makes it. It returns that sum
# for the amplitude probe when it rewrote no point, else None.
#
# "Bit for bit" leaves out the sign of a NaN. IEEE 754 does not fix it: on
# x86 an invalid operation makes a negative NaN and an operation on two NaNs
# passes the first one's sign on, so the order of the ops decides it, and
# one explicit stepper call can return a NaN of the other sign than the plain
# expression (``prev = [0, 0, 0, nan j]``, ``cur = [0, 0, 0, 1e308j]``,
# periodic, ``m = th_t = th_x = 0``). No NaN reaches a CSV: a level with a
# NaN part fails the amplitude probe, and the run exits 4 before it writes.
#
# With ``th_x == 0`` (of either sign) the explicit stepper skips the advection
# term, and the result is the same bit for bit. Every ``cur`` it gets passed
# the amplitude probe (``simulate_time_domain`` probes the two seeded levels
# before the first step), so every part of its interior is at most
# ``AMPLITUDE_ABORT`` in size, and its ghosts are copies of interior points or
# dirichlet zeros. So ``right - left`` is finite, and ``inv_two_dx <=
# sqrt(inv_dx2) / 2``, so ``adv`` is finite whenever ``inv_dx2`` is; when
# ``inv_dx2`` is not finite, every point's ``lap`` is inf or NaN and is flagged
# whatever ``adv`` is. So ``th_x * adv`` is a zero, and subtracting a zero
# changes ``lap`` only in the sign of a zero. Added to ``2 cur - lag prev``,
# that zero decides the result only where ``2 cur - lag prev`` is -0, which
# needs a -0 ``2 cur``: a point that is flagged already.
#
# The explicit stepper serves one run: each call's ``cur`` is the previous
# call's ``out`` with ``_apply_bc`` applied. When that call rewrote no point,
# a fact about ``cur`` follows from it, so it is proved once per run, not
# checked at every step: when ``0.5 < 1 / denom``, a part of the new level is
# -0 only where ``2 cur`` is -0. The part is ``x * fl(1 / denom)`` with ``x =
# (2 cur - lag prev) + dt^2 lap``, each op rounded. A sum of two floats that
# rounds to zero is exact, and an exact zero of nonzero terms is +0, so a sum
# or a difference is -0 only where its first term is -0; so ``x`` is -0 only
# where ``2 cur`` is. A nonzero ``x`` is at least the least subnormal
# ``2^-1074`` in size, so ``|x| * fl(1 / denom)`` exceeds ``2^-1075`` and
# rounds to a nonzero: the product is -0 only where ``x`` is. The boundary
# rule adds no -0 to the interior (dirichlet pins +0), and ``2 cur`` is -0
# exactly where ``cur`` is. So a call that found no -0 in its ``2 cur`` hands
# the next call a ``2 cur`` with none, and the scan runs on the first level,
# after a rewrite, and on every step when ``1 / denom <= 0.5``: ``th_t dt <=
# -2``, where a product with the least subnormal can round to -0, or ``th_t dt
# > 2``, where ``denom < 0`` turns a +0 into -0.

# the bits of -0.0 read as an int64: the least int64, so a min finds it
_NEGATIVE_ZERO = np.iinfo(np.int64).min


def _complex_stencil(left, phi, right, dx2, two_dx):
    """``2 phi`` and the centered stencils ``(right - 2 phi + left) / dx2`` and
    ``(right - left) / two_dx``, by the complex ops of the plain expression."""
    two_phi = 2 * phi
    return two_phi, (right - two_phi + left) / dx2, (right - left) / two_dx


def _leapfrog_stepper(n_x, dx, dt, m, theta_t, theta_x):
    """Explicit centered update
    ``(2 cur - (1 + th_t dt/2) prev + dt^2 (lap - m^2 cur - th_x adv)) / (1 - th_t dt/2)``.

    The returned step serves one run: each call's ``cur`` is the previous
    call's ``out`` with the boundary rule applied, and it passed the
    amplitude probe (see the note above)."""
    lag = 1 + 0.5 * theta_t * dt
    denom = 1 - 0.5 * theta_t * dt
    dx2, two_dx, dt2, mm = dx * dx, 2 * dx, dt * dt, m * m
    inv_dx2, inv_two_dx, inv_denom = 1 / dx2, 1 / two_dx, 1 / denom
    two_cur, lap, adv, tmp = (np.empty(2 * n_x) for _ in range(4))
    scan = True  # ``cur`` may hold a -0

    def step(n, prev, cur, out):
        nonlocal scan
        c = cur.view(np.float64)
        now, new = c[2:-2], out.view(np.float64)[2:-2]
        np.multiply(2, now, out=two_cur)
        np.subtract(c[4:], two_cur, out=lap)
        np.add(lap, c[:-4], out=lap)
        np.multiply(lap, inv_dx2, out=lap)
        np.multiply(mm, now, out=tmp)
        np.subtract(lap, tmp, out=lap)
        if theta_x != 0:  # with th_x = 0 a probed level's advection term is a zero (see the note above)
            _advection(c, inv_two_dx, adv)
            np.multiply(theta_x, adv, out=adv)
            np.subtract(lap, adv, out=lap)
        np.multiply(dt2, lap, out=lap)
        np.multiply(lag, prev.view(np.float64)[2:-2], out=tmp)
        np.subtract(two_cur, tmp, out=new)
        np.add(new, lap, out=new)
        np.multiply(new, inv_denom, out=new)
        sumsq = new @ new
        if not (scan and two_cur.view(np.int64).min() == _NEGATIVE_ZERO) and math.isfinite(sumsq):
            scan = inv_denom <= 0.5
            return sumsq
        flag = (two_cur.view(np.int64) == _NEGATIVE_ZERO) | ~np.isfinite(new)
        i = np.flatnonzero(flag.reshape(-1, 2).any(axis=1)) + 1
        two_c, lap_i, adv_i = _complex_stencil(cur[i - 1], cur[i], cur[i + 1], dx2, two_dx)
        out[i] = (two_c - lag * prev[i] + dt2 * (lap_i - mm * cur[i] - theta_x * adv_i)) / denom
        scan = True
        return None

    return step


def _x_term_stepper(xs, dx, dt, m, theta_t, theta_x):
    """Implicit update with the point-dependent second-derivative term on.

    The mixed time-space derivative couples neighbouring points of the new
    level, giving a tridiagonal complex system per step with dirichlet rows
    at both ends. Its right-hand side is the plain complex expression, and
    LAPACK ``?gtsv``, the routine ``scipy.linalg.solve_banded((1, 1), ...)``
    calls, solves the system in place without a finiteness check, so
    non-finite values reach the amplitude probe; a singular system raises
    :class:`DegenerateParameterError`.
    """
    from scipy.linalg import get_lapack_funcs  # scipy loads only on the paths that call it

    n_x = len(xs)
    a_xx = -1 + 2 * theta_x * xs
    theta_t_xs = theta_t * xs
    dx2, two_dx, dt2, mm = dx * dx, 2 * dx, dt * dt, m * m
    half_tt, shift_scale = 0.5 * theta_t, 4 * dt * dx
    d = np.empty(n_x, dtype=complex)
    du, dl = np.empty(n_x - 1, dtype=complex), np.empty(n_x - 1, dtype=complex)
    (gtsv,) = get_lapack_funcs(("gtsv",), (d, d))

    def step(n, prev, cur, out):
        t_now = n * dt
        a_tt = 1 - 2 * theta_t * t_now
        c_cross = 2 * (theta_x * t_now - theta_t_xs)
        now, before = cur[1:-1], prev[1:-1]
        two_now, lap, adv = _complex_stencil(cur[:-2], now, cur[2:], dx2, two_dx)
        rhs = (
            a_tt * (two_now - before) / dt2
            - half_tt * before / dt
            + c_cross * ((prev[2:] - prev[:-2]) / shift_scale)
            - a_xx * lap
            - mm * now
            - theta_x * adv
        )
        # the band, dirichlet rows pinning the boundary values; off-diagonals
        # are divided as reals, then widened to complex
        d.fill(a_tt / dt2 - half_tt / dt)
        np.true_divide(c_cross[:-1], shift_scale, out=du)
        np.true_divide(-c_cross[1:], shift_scale, out=dl)
        d[0] = d[-1] = 1.0
        du[0] = dl[-1] = 0.0
        rhs[0] = rhs[-1] = 0.0
        # solved in place: the factors overwrite dl, d, du and the solution rhs
        *_, x, info = gtsv(dl, d, du, rhs, True, True, True, True)
        if info > 0:
            raise DegenerateParameterError(f"the x-term system is singular at step {n} (t = {t_now:.6g})")
        out[1:-1] = x

    return step


def fit_decay_rate(times: np.ndarray, log_amplitudes: np.ndarray) -> float:
    """Least-squares slope of ``log_amplitudes`` against ``times``: the growth
    rate of ``||phi(t, .)||_2`` when they are its logarithms at those times."""
    # times whose squares underflow leave the fit no scale: raise, not warn
    with np.errstate(divide="raise", invalid="raise"):
        return float(np.polyfit(times, log_amplitudes, 1)[0])


@dataclass(frozen=True)
class OdeSolution:
    """Sampled solution of one frequency-domain boundary-value problem.

    ``at(points)`` evaluates the shooting solution anywhere in the domain,
    and ``residual`` is its max centered-stencil residual at the interior
    samples ``x[1:-1]``.
    """

    x: np.ndarray
    phi: np.ndarray
    at: Callable
    residual: float
    phi_closed: np.ndarray | None = None
    char_roots: tuple | None = None


# samples per solution, and the shooting integrator's tolerances
ODE_SAMPLES = 201
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12


def _solve_linear(b, q: Callable, domain, bc, closed=None, char_roots=None) -> OdeSolution:
    """``phi'' = b phi' + q(x) phi`` with ``phi = bc`` at both ends of ``domain``.

    Linear shooting by superposition of two complex basis initial-value
    solutions. ``closed(xs)``, when given, samples an exact solution at
    the same points.
    """
    from scipy.integrate import solve_ivp  # scipy loads only on the paths that call it

    x0, x1 = float(domain[0]), float(domain[1])
    if not x1 > x0:
        raise ValueError("empty domain")

    def basis(y0):
        sol = solve_ivp(
            lambda x, y: [y[1], b * y[1] + q(x) * y[0]],
            (x0, x1),
            np.array(y0, dtype=complex),
            method="RK45",
            dense_output=True,
            rtol=ODE_RTOL,
            atol=ODE_ATOL,
        )
        if not sol.success:
            raise RuntimeError(f"integration failed: {sol.message}")
        return lambda pts: sol.sol(pts)[0]

    u, w = basis([1, 0]), basis([0, 1])
    a_val, b_val = complex(bc[0]), complex(bc[1])
    w_scale = float(np.max(np.abs(w(np.linspace(x0, x1, 33)))))
    w_end = complex(w(x1))
    # a far-end zero of the basis solution (conjugate point) makes the fit
    # amplify boundary data beyond the integration accuracy
    if abs(w_end) < 1e-8 * max(w_scale, 1e-300):
        raise ValueError("boundary fit singular: basis solution vanishes at the far end")
    c2 = (b_val - a_val * complex(u(x1))) / w_end

    def at(pts):
        pts = np.asarray(pts, dtype=float)
        return a_val * u(pts) + c2 * w(pts)

    xs = np.linspace(x0, x1, ODE_SAMPLES)
    phi = at(xs)
    h = xs[1] - xs[0]
    second = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / (h * h)
    first = (phi[2:] - phi[:-2]) / (2 * h)
    residual = float(np.max(np.abs(second - b * first - q(xs[1:-1]) * phi[1:-1])))
    return OdeSolution(xs, phi, at, residual, None if closed is None else closed(xs), char_roots)


def _closed_form_two_exp(r_plus, r_minus, bc, xs):
    """``c1 e^{r+ x} + c2 e^{r- x}`` (or the degenerate branch) fitted to the
    boundary data at both ends of ``xs``, sampled at ``xs``.

    The two-exponential fit loses about ``-log10(|r+ - r-| * span)`` digits
    as the roots merge; below that scale the ``(c1 + c2 x) e^{r x}`` branch
    is the accurate representation, so the switch happens at
    ``|r+ - r-| * span <= 1e-6`` where both branches are good.
    """
    x0, x1 = float(xs[0]), float(xs[-1])
    a_val, b_val = complex(bc[0]), complex(bc[1])
    span = x1 - x0
    if abs(r_plus - r_minus) * span <= 1e-6:
        r = 0.5 * (r_plus + r_minus)
        c1 = a_val * cmath.exp(-r * x0)
        c2 = (b_val * cmath.exp(-r * x1) - c1) / span
        return (c1 + c2 * (xs - x0)) * np.exp(r * xs)
    mat = np.array(
        [
            [cmath.exp(r_plus * x0), cmath.exp(r_minus * x0)],
            [cmath.exp(r_plus * x1), cmath.exp(r_minus * x1)],
        ],
        dtype=complex,
    )
    c1, c2 = np.linalg.solve(mat, np.array([a_val, b_val], dtype=complex))
    return c1 * np.exp(r_plus * xs) + c2 * np.exp(r_minus * xs)


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
    disc = cmath.sqrt(beta * beta + 4 * q)
    roots = ((beta + disc) / 2, (beta - disc) / 2)
    return _solve_linear(
        beta, lambda x: q, domain, bc, lambda xs: _closed_form_two_exp(*roots, bc, xs), roots
    )


def change_of_variable(x, beta: float):
    """Map ``y(x) = (e^{beta x} - 1)/beta`` with ``y = x`` in the flat limit.

    ``expm1`` keeps the small-``beta x`` regime accurate; ``y(0) = 0``
    fixes the free integration constant.  Strictly increasing for all
    ``beta``.
    """
    if beta == 0:
        return x
    return np.expm1(beta * np.asarray(x, dtype=float)) / beta


def inverse_change_of_variable(y, beta: float):
    """Inverse map ``x(y) = log(1 + beta y)/beta``."""
    if beta == 0:
        return y
    return np.log1p(beta * np.asarray(y, dtype=float)) / beta


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

    def q(y):
        x_of_y = inverse_change_of_variable(y, beta)
        shape = (1 - 2 * beta * x_of_y) if linearized else np.exp(-2 * beta * x_of_y)
        return -big_q * shape

    mapped = (change_of_variable(domain[0], beta), change_of_variable(domain[1], beta))
    return _solve_linear(0.0, q, mapped, bc)

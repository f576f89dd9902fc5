"""Momentum-side machinery: finite-box kernel, parts identities, complex spectrum.

On a bounded region the transform kernel integrates to the box factor
``Delta(p)`` instead of a delta distribution; with the momentum aligned
to the theta gradient the matrix relation collapses to a scalar quadratic
whose roots carry an imaginary part set by the time derivative of theta.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import MINKOWSKI_SIGNS, DegenerateParameterError


@dataclass(frozen=True)
class BoxRegion:
    """Finite time interval times a finite spatial box (positive 4-volume)."""

    t0: float
    t1: float
    spatial: tuple  # three (a_i, b_i) pairs

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError("empty time interval")
        if len(self.spatial) != 3:
            raise ValueError(f"a box needs three spatial intervals, got {len(self.spatial)}")
        for a, b in self.spatial:
            if not b > a:
                raise ValueError("empty spatial interval")

    @classmethod
    def cube(cls, t0=0.0, t1=1.0, a=0.0, b=1.0) -> "BoxRegion":
        return cls(t0, t1, ((a, b), (a, b), (a, b)))

    def volume(self) -> float:
        vol = self.t1 - self.t0
        for a, b in self.spatial:
            vol *= b - a
        return vol

    def intervals(self) -> list:
        return [(self.t0, self.t1), *self.spatial]


def constrained_momentum(v_cov: Sequence, energy) -> tuple:
    """Gradient-aligned covariant momentum ``p_a = (v_a / v_0) E``."""
    if v_cov[0] == 0:
        raise DegenerateParameterError("alignment requires v_0 != 0")
    return tuple((va * energy) / v_cov[0] for va in v_cov)


_SERIES_CUTOFF = 1e-6


def _segment_integral(c, a: float, b: float) -> complex:
    """Closed form of ``int_a^b exp(i c z) dz`` with a series branch near c = 0."""
    c = complex(c)
    width = b - a
    u = 1j * c * width
    if abs(u) < _SERIES_CUTOFF:
        # 4-term expansion of (exp(u) - 1)/u removes the 0/0 singularity
        return cmath.exp(1j * c * a) * width * (1 + u / 2 + u * u / 6 + u**3 / 24)
    try:
        return (cmath.exp(1j * c * b) - cmath.exp(1j * c * a)) / (1j * c)
    except ValueError as exc:  # cmath rejects a phase that overflowed to inf
        raise OverflowError(f"box kernel phase overflows on [{a}, {b}]") from exc


def delta_sigma(p_cov: Sequence, box: BoxRegion) -> complex:
    """Box kernel ``Delta(p) = int exp(i p.x) d4x`` as a product of segment factors.

    The covariant components ``p_cov`` are the per-coordinate phases.  At
    ``p = 0`` the value is exactly the 4-volume.
    """
    value = 1.0 + 0.0j
    for c, (lo, hi) in zip(p_cov, box.intervals()):
        value *= _segment_integral(c, lo, hi)
    return value


@dataclass(frozen=True)
class FactorFunction:
    """One separable factor with first and second derivative callables."""

    value: Callable[[float], complex]
    deriv: Callable[[float], complex]
    second: Callable[[float], complex]


@dataclass(frozen=True)
class SeparableTestFunction:
    """Product test function ``phi(x) = prod_a f_a(x^a)`` for identity checks."""

    factors: tuple

    @classmethod
    def gaussian(cls, centers: Sequence[float], widths: Sequence[float]):
        def make(c, w):
            return FactorFunction(
                value=lambda z, c=c, w=w: cmath.exp(-((z - c) ** 2) / (2 * w * w)),
                deriv=lambda z, c=c, w=w: -(z - c)
                / (w * w)
                * cmath.exp(-((z - c) ** 2) / (2 * w * w)),
                second=lambda z, c=c, w=w: ((z - c) ** 2 / (w * w) - 1)
                / (w * w)
                * cmath.exp(-((z - c) ** 2) / (2 * w * w)),
            )

        return cls(tuple(make(c, w) for c, w in zip(centers, widths)))

    @classmethod
    def constant(cls, value: complex = 1.0):
        first = FactorFunction(
            value=lambda z, v=value: v,
            deriv=lambda z: 0.0j,
            second=lambda z: 0.0j,
        )
        rest = FactorFunction(
            value=lambda z: 1.0 + 0.0j, deriv=lambda z: 0.0j, second=lambda z: 0.0j
        )
        return cls((first, rest, rest, rest))

    @classmethod
    def plane_wave(cls, freqs: Sequence[float]):
        def make(q):
            return FactorFunction(
                value=lambda z, q=q: cmath.exp(1j * q * z),
                deriv=lambda z, q=q: 1j * q * cmath.exp(1j * q * z),
                second=lambda z, q=q: -q * q * cmath.exp(1j * q * z),
            )

        return cls(tuple(make(q) for q in freqs))


def _quad_complex(fn, a: float, b: float) -> complex:
    from scipy.integrate import quad  # scipy loads only on the paths that call it

    re = quad(lambda z: fn(z).real, a, b, limit=200, epsabs=1e-12, epsrel=1e-10)[0]
    im = quad(lambda z: fn(z).imag, a, b, limit=200, epsabs=1e-12, epsrel=1e-10)[0]
    return complex(re, im)


def fourier_parts_check(
    phi: SeparableTestFunction, p_cov: Sequence, box: BoxRegion
) -> float:
    """Max residual of the by-parts transform identities on the box.

    Checks, by quadrature on both sides, that the transform of a first
    derivative equals ``-i p_a`` times the transform plus the face term,
    and the corresponding second-derivative identity for every index pair.
    """
    ivs = box.intervals()

    def seg(fn, axis):
        c = p_cov[axis]
        a, b = ivs[axis]
        return _quad_complex(lambda z: fn(z) * cmath.exp(1j * complex(c) * z), a, b)

    base = [seg(phi.factors[i].value, i) for i in range(4)]
    first = [seg(phi.factors[i].deriv, i) for i in range(4)]
    second = [seg(phi.factors[i].second, i) for i in range(4)]

    def face_term(fn, axis):
        c = complex(p_cov[axis])
        a, b = ivs[axis]
        return fn(b) * cmath.exp(1j * c * b) - fn(a) * cmath.exp(1j * c * a)

    def product_except(values, skip):
        out = 1.0 + 0.0j
        for i, v in enumerate(values):
            if i not in skip:
                out *= v
        return out

    worst = 0.0
    for al in range(4):
        lhs = first[al] * product_except(base, {al})
        boundary = face_term(phi.factors[al].value, al) * product_except(base, {al})
        rhs = -1j * complex(p_cov[al]) * product_except(base, ()) + boundary
        worst = max(worst, abs(lhs - rhs))
    for mu in range(4):
        for al in range(4):
            if mu == al:
                lhs = second[al] * product_except(base, {al})
                bd_mu = face_term(phi.factors[al].deriv, al) * product_except(base, {al})
            else:
                lhs = first[mu] * first[al] * product_except(base, {mu, al})
                bd_mu = (
                    face_term(phi.factors[mu].value, mu)
                    * first[al]
                    * product_except(base, {mu, al})
                )
            bd_al = face_term(phi.factors[al].value, al) * product_except(base, {al})
            rhs = (
                -complex(p_cov[mu]) * complex(p_cov[al]) * product_except(base, ())
                + bd_mu
                - 1j * complex(p_cov[mu]) * bd_al
            )
            worst = max(worst, abs(lhs - rhs))
    return worst


def constrained_spectrum(v_cov: Sequence, m: float) -> tuple:
    """Exact roots of the gradient-aligned scalar relation, ordered by real part.

    Substituting ``p_a = (v_a / v_0) E`` reduces the matrix relation to
    ``-(v2/v0^2) E^2 + m^2 + i (v2/v0) E = 0`` with ``v2`` the flat square
    of the gradient; for ``4 m^2 > v2`` both roots have imaginary part
    exactly ``v_0 / 2``.  Rejects ``v_0 = 0`` and ``v2 = 0``.
    """
    v0 = complex(v_cov[0])
    if v0 == 0:
        raise DegenerateParameterError("alignment constraint needs v_0 != 0")
    v2 = complex(
        sum(MINKOWSKI_SIGNS[a] * complex(v_cov[a]) ** 2 for a in range(4))
    )
    if v2 == 0:
        raise DegenerateParameterError("flat square of the gradient vanishes")
    root = cmath.sqrt(m * m * v0 * v0 / v2 - v0 * v0 / 4)
    e_a = 1j * v0 / 2 + root
    e_b = 1j * v0 / 2 - root
    return (e_a, e_b) if e_a.real >= e_b.real else (e_b, e_a)


def spectrum_reference_approx(theta_dot: float, grad_norm: float, m: float) -> tuple:
    """Small-gradient reference values ``+-m (1 - k^2/2) + i th_t/2``.

    ``k = grad_norm / theta_dot``.  The leading imaginary part matches the
    exact roots; the sign of the ``k^2`` real correction is a comparison
    output, not an assertion (the exact expansion carries ``+k^2/2``).
    """
    if theta_dot == 0:
        raise DegenerateParameterError("reference expansion needs theta_dot != 0")
    kappa2 = (grad_norm / theta_dot) ** 2
    re = m * (1 - kappa2 / 2)
    return (complex(re, theta_dot / 2), complex(-re, theta_dot / 2))


def plane_wave_rates(k, m: float, theta_dot: float, theta_prime: float):
    """Complex frequency of the ``exp(i (w t - k x))`` mode of the 1+1D operator.

    Root with positive real part of
    ``w^2 + i th_t w - (k^2 + m^2 - i th_x k) = 0``, elementwise over a
    scalar or an array ``k``; for ``th_x = 0`` the imaginary part is
    exactly ``-th_t / 2`` (amplitude factor ``exp(th_t t / 2)``).
    """
    import numpy as np

    k = np.asarray(k, dtype=float)
    disc = np.sqrt(
        (-theta_dot * theta_dot + 4 * (k**2 + m * m - 1j * theta_prime * k)).astype(complex)
    )
    # an overflowing theta_dot leaves inf * 0 in the complex halving; the
    # resulting nan reaches the simulator's amplitude probe, which reports it
    with np.errstate(invalid="ignore"):
        plus = (-1j * theta_dot + disc) / 2
        minus = (-1j * theta_dot - disc) / 2
    return np.where(plus.real >= 0, plus, minus)

"""Momentum-side machinery: finite-box kernel, parts identities, complex spectrum.

On a bounded region the transform kernel integrates to the box factor
``Delta(p)`` instead of a delta distribution; with the momentum aligned
to the theta gradient the matrix relation collapses to a scalar quadratic
whose roots carry an imaginary part set by the time derivative of theta.

A box is four ``(lo, hi)`` intervals, time first, and a separable test
function ``phi(x) = prod_a f_a(x^a)`` one ``(f, f', f'')`` triple of
callables per axis.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from .core import MINKOWSKI_SIGNS, DegenerateParameterError


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


def delta_sigma(p_cov: Sequence, box: Sequence) -> complex:
    """Box kernel ``Delta(p) = int exp(i p.x) d4x`` as a product of segment factors.

    The covariant components ``p_cov`` are the per-coordinate phases of the
    four box intervals.  At ``p = 0`` the value is exactly the 4-volume.
    """
    value = 1.0 + 0.0j
    for c, (lo, hi) in zip(p_cov, box, strict=True):
        value *= _segment_integral(c, lo, hi)
    return value


def _quad_complex(fn, a: float, b: float) -> complex:
    from scipy.integrate import quad  # scipy loads only on the paths that call it

    re = quad(lambda z: fn(z).real, a, b, limit=200, epsabs=1e-12, epsrel=1e-10)[0]
    im = quad(lambda z: fn(z).imag, a, b, limit=200, epsabs=1e-12, epsrel=1e-10)[0]
    return complex(re, im)


def fourier_parts_check(factors: Sequence, p_cov: Sequence, box: Sequence) -> float:
    """Max residual of the by-parts transform identities on the box.

    ``factors`` holds one ``(f, f', f'')`` triple per axis and ``box`` four
    ``(lo, hi)`` intervals.  Checks, by quadrature on both sides, that the
    transform of a first derivative equals ``-i p_a`` times the transform
    plus the face term, and the corresponding second-derivative identity
    for every index pair.
    """
    axes = [(fns, complex(c), iv) for fns, c, iv in zip(factors, p_cov, box, strict=True)]
    p = [c for _, c, _ in axes]

    def seg(order, axis):
        fns, c, (a, b) = axes[axis]
        return _quad_complex(lambda z: fns[order](z) * cmath.exp(1j * c * z), a, b)

    def face(order, axis):
        fns, c, (a, b) = axes[axis]
        fn = fns[order]
        return fn(b) * cmath.exp(1j * c * b) - fn(a) * cmath.exp(1j * c * a)

    base, first, second = ([seg(order, i) for i in range(4)] for order in range(3))

    def rest(*skip):
        """Product of the base transforms of the axes not in ``skip``."""
        return math.prod(v for i, v in enumerate(base) if i not in skip)

    worst = 0.0
    for al in range(4):
        lhs = first[al] * rest(al)
        rhs = -1j * p[al] * rest() + face(0, al) * rest(al)
        worst = max(worst, abs(lhs - rhs))
    for mu in range(4):
        for al in range(4):
            if mu == al:
                lhs = second[al] * rest(al)
                bd_mu = face(1, al) * rest(al)
            else:
                lhs = first[mu] * first[al] * rest(mu, al)
                bd_mu = face(0, mu) * first[al] * rest(mu, al)
            bd_al = face(0, al) * rest(al)
            rhs = -p[mu] * p[al] * rest() + bd_mu - 1j * p[mu] * bd_al
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

"""Shared generators for randomized exact-arithmetic tests, and the separable
test functions of the parts identities: one ``(f, f', f'')`` triple of
callables per axis."""

import cmath
from fractions import Fraction

from exocalc.core import EpsSeries
from exocalc.poly import MultiPoly


def rand_frac(rng, lo=-9, hi=9, den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def fraction_multipoly(rng, nvars: int, degree: int) -> MultiPoly:
    """Reference for ``poly.random_multipoly``: the same draws, with each
    coefficient a ``Fraction`` and the terms passed to the constructor."""
    coeffs = {}
    for _ in range(4):
        mono = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(nvars)] += 1
        key = (0, tuple(mono))
        coeffs[key] = coeffs.get(key, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(nvars, coeffs)


def rand_vec4(rng) -> tuple:
    return tuple(rand_frac(rng) for _ in range(4))


def rand_theta4(rng, eps: bool = False) -> tuple:
    """Covariant gradient of a random linear theta; ``eps`` grades each component 1."""
    grad = tuple(rand_frac(rng, -4, 4, 5) for _ in range(4))
    return tuple(EpsSeries.eps(g) for g in grad) if eps else grad


def gaussian_factors(centers, widths) -> tuple:
    """Per-axis ``(f, f', f'')`` of the Gaussians ``exp(-(z - c)^2 / (2 w^2))``."""

    def make(c, w):
        return (
            lambda z: cmath.exp(-((z - c) ** 2) / (2 * w * w)),
            lambda z: -(z - c) / (w * w) * cmath.exp(-((z - c) ** 2) / (2 * w * w)),
            lambda z: ((z - c) ** 2 / (w * w) - 1)
            / (w * w)
            * cmath.exp(-((z - c) ** 2) / (2 * w * w)),
        )

    return tuple(make(c, w) for c, w in zip(centers, widths))


def constant_factors(value: complex = 1.0) -> tuple:
    """Per-axis ``(f, f', f'')`` of the constant ``phi = value``."""

    def zero(z):
        return 0.0j

    return ((lambda z: value, zero, zero),) + ((lambda z: 1.0 + 0.0j, zero, zero),) * 3


def plane_wave_factors(freqs) -> tuple:
    """Per-axis ``(f, f', f'')`` of the plane wave ``exp(i q_a x^a)``."""

    def make(q):
        return (
            lambda z: cmath.exp(1j * q * z),
            lambda z: 1j * q * cmath.exp(1j * q * z),
            lambda z: -q * q * cmath.exp(1j * q * z),
        )

    return tuple(make(q) for q in freqs)

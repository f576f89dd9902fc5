"""Shared generators for randomized exact-arithmetic tests."""

from fractions import Fraction

from exocalc.core import EpsSeries


def rand_frac(rng, lo=-9, hi=9, den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_vec4(rng) -> tuple:
    return tuple(rand_frac(rng) for _ in range(4))


def rand_theta4(rng, eps: bool = False) -> tuple:
    """Covariant gradient of a random linear theta; ``eps`` grades each component 1."""
    grad = tuple(rand_frac(rng, -4, 4, 5) for _ in range(4))
    return tuple(EpsSeries.eps(g) for g in grad) if eps else grad

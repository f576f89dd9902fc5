"""Scalar, series and vector foundations."""

import math
import random
from fractions import Fraction

import pytest

from exocalc.core import (
    EpsSeries,
    QI,
    RationalComplex,
    eps_grade,
    lower_index,
    minkowski_dot,
    raise_index,
)
from helpers import rand_frac


def rand_series(rng, trunc=2):
    return EpsSeries([rand_frac(rng) for _ in range(trunc + 1)], trunc=trunc)


def test_series_ring_axioms_exact():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a**2 == a * a and a**0 == EpsSeries.constant(1)


def test_series_truncation_rule():
    a = EpsSeries([Fraction(1), Fraction(2), Fraction(3)])
    b = EpsSeries([Fraction(4), Fraction(5), Fraction(6)])
    prod = a * b
    # coeffs[k] = sum_{i+j=k} a_i b_j, k <= K
    assert prod.coeffs == (Fraction(4), Fraction(13), Fraction(28))
    assert prod.trunc == 2


def test_series_grade_additivity():
    rng = random.Random(1)
    for _ in range(100):
        ga, gb = rng.randint(0, 1), rng.randint(0, 1)
        coeffs_a = [0] * ga + [rand_frac(rng) or Fraction(1)]
        coeffs_b = [0] * gb + [rand_frac(rng) or Fraction(1)]
        a = EpsSeries(coeffs_a, trunc=2)
        b = EpsSeries(coeffs_b, trunc=2)
        if a.grade() is math.inf or b.grade() is math.inf:
            continue
        if a.grade() + b.grade() <= 2:
            assert (a * b).grade() == a.grade() + b.grade()


def test_series_zero_grade_is_inf():
    assert EpsSeries([0, 0, 0]).grade() == math.inf
    assert eps_grade(EpsSeries.eps(Fraction(3))) == 1
    assert eps_grade(0) == math.inf
    assert eps_grade(Fraction(1, 2)) == 0


def test_rational_complex_arithmetic():
    assert QI * QI == RationalComplex(-1)
    z = RationalComplex(Fraction(1, 2), Fraction(-1, 3))
    assert z + z.conjugate() == RationalComplex(1)
    assert (z * QI).re == Fraction(1, 3)
    assert complex(RationalComplex(1, 2)) == 1 + 2j


@pytest.mark.parametrize("x", [0.3, -2.5, 0.0, 1.5 - 0.25j, complex(0, 3)])
def test_rational_complex_mixes_with_floats_on_either_side(x):
    rc = RationalComplex(Fraction(1, 3), Fraction(-7, 2))
    z = complex(rc)
    cases = [(rc + x, z + x), (x + rc, x + z), (rc - x, z - x), (x - rc, x - z),
             (rc * x, z * x), (x * rc, x * z)]
    for got, want in cases:
        assert type(got) is complex
        assert got == want


def test_lower_index_examples():
    assert lower_index((1, 0, 0, 0)) == (1, 0, 0, 0)
    assert lower_index((0, 1, 0, 0)) == (0, -1, 0, 0)
    v = (1, 1, 0, 0)
    low = lower_index(v)
    assert low == (1, -1, 0, 0)
    assert sum(a * b for a, b in zip(low, v)) == 0


def test_raise_lower_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        v = tuple(rand_frac(rng) for _ in range(4))
        assert raise_index(lower_index(v)) == v
        assert lower_index(raise_index(v)) == v


def test_minkowski_dot_examples():
    assert minkowski_dot((1, 0, 0, 0), (1, 0, 0, 0)) == 1
    assert minkowski_dot((1, 1, 0, 0), (1, 1, 0, 0)) == 0
    assert minkowski_dot((2, 1, 0, 0), (1, 2, 0, 0)) == 0
    rng = random.Random(3)
    for _ in range(50):
        u = tuple(rand_frac(rng) for _ in range(4))
        v = tuple(rand_frac(rng) for _ in range(4))
        assert minkowski_dot(u, v) == minkowski_dot(v, u)

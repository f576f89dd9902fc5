"""Exact polynomial coefficient ring: calculus, grading, bookkeeping."""

import math
import random
from fractions import Fraction

import pytest

from exocalc.core import EPS_ORDER
from exocalc.poly import EXP_LIMIT, FIELD_BITS, MultiPoly, random_multipoly
from helpers import fraction_multipoly


def test_constant_and_variable():
    c = MultiPoly.constant(Fraction(3, 2), 2)
    x0 = MultiPoly.variable(0, 2)
    x1 = MultiPoly.variable(1, 2)
    prod = c * x0 * x1
    assert prod.diff(0) == c * x1
    assert prod.diff(1) == c * x0
    assert prod.diff(0).diff(1) == c


def test_ring_axioms_random():
    rng = random.Random(80)
    for _ in range(60):
        a = random_multipoly(rng, 3, 3)
        b = random_multipoly(rng, 3, 3)
        c = random_multipoly(rng, 3, 3)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a - a == MultiPoly.zero(3)


def test_diff_and_integrate_are_exact_inverses_on_monomials():
    # integrating x^k over the unit interval gives 1/(k+1)
    x = MultiPoly.variable(0, 1)
    cube = x * x * x
    assert cube.integrate_unit(0) == MultiPoly.constant(Fraction(1, 4), 1)
    assert cube.diff(0) == 3 * x * x


def test_subst_const():
    x0, x1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    p = x0 * x0 * x1 + 2 * x1
    at_half = p.subst_const(0, Fraction(1, 2))
    assert at_half == (Fraction(1, 4) + 2) * x1


def test_eps_grading():
    p = MultiPoly.variable(0, 1)
    graded = p.scale_eps(1) + MultiPoly.constant(2, 1).scale_eps(2)
    assert graded.eps_grade() == 1
    assert graded.eps_component(1) == p
    assert graded.eps_component(2) == MultiPoly.constant(2, 1)
    assert graded.eps_truncated(1) == p.scale_eps(1)
    assert MultiPoly.zero(1).eps_grade() == math.inf


def test_eps_truncation_drops_high_grades():
    # grade EPS_ORDER survives and grade EPS_ORDER + 1 drops: scaling, products, constructor
    c = MultiPoly.constant(1, 1)
    assert c.scale_eps(EPS_ORDER).eps_grade() == EPS_ORDER
    assert c.scale_eps(EPS_ORDER + 1).is_zero()
    a = MultiPoly.variable(0, 1).scale_eps(1)
    power = a
    for _ in range(EPS_ORDER - 1):
        power = power * a
    assert power.eps_grade() == EPS_ORDER and power.coefficient(EPS_ORDER, (EPS_ORDER,)) == 1
    assert (power * a).is_zero()
    assert (c.scale_eps(1) * c.scale_eps(EPS_ORDER)).is_zero()
    assert MultiPoly(1, {(EPS_ORDER + 1, (0,)): 1}).is_zero()


def test_promote_and_drop():
    p = MultiPoly.variable(0, 2) * MultiPoly.variable(1, 2)
    up = p.promote()
    assert up.nvars == 3
    assert up.diff(0).is_zero()  # the new leading variable is absent
    assert up.drop_leading_var() == p
    with pytest.raises(ValueError):
        (MultiPoly.variable(0, 2)).drop_leading_var()


def test_nvars_mismatch_rejected():
    with pytest.raises(ValueError):
        MultiPoly.variable(0, 2) + MultiPoly.variable(0, 3)


def test_total_degree_and_repr():
    p = MultiPoly.variable(0, 2) * MultiPoly.variable(1, 2) + MultiPoly.constant(1, 2)
    assert "MultiPoly" in repr(p)
    assert repr(MultiPoly.zero(2)) == "MultiPoly(0)"


def test_coefficient_reads_exact_fractions():
    p = MultiPoly(2, {(0, (0, 0)): Fraction(3, 4), (1, (2, 1)): -2, (EPS_ORDER + 1, (1, 0)): 5})
    assert p.coefficient(0, (0, 0)) == Fraction(3, 4)
    assert p.coefficient(1, (2, 1)) == -2
    assert p.coefficient(1, (1, 2)) == 0
    assert p.coefficient(EPS_ORDER + 1, (1, 0)) == 0  # above the truncation order
    assert p.terms and all(type(v) is int for v in p.terms.values())


def test_products_fill_the_exponent_field_and_overflow_raises():
    top = EXP_LIMIT - 1  # the largest exponent a packed field holds
    half = MultiPoly.variable(0, 2)
    for _ in range(FIELD_BITS - 2):
        half = half * half  # x0^(EXP_LIMIT / 2)
    rest = MultiPoly(2, {(1, (top - EXP_LIMIT // 2, top)): Fraction(3, 2)})
    full = half * rest
    assert repr(full) == f"MultiPoly(3/2*eps*x0^{top}*x1^{top})"
    assert full.eps_grade() == 1
    # one more power of either variable would carry into its neighbour or eps
    for var in (0, 1):
        with pytest.raises(OverflowError):
            full * MultiPoly.variable(var, 2)
    with pytest.raises(OverflowError):
        MultiPoly(2, {(0, (0, EXP_LIMIT)): 1})


def test_results_are_in_lowest_terms():
    rng = random.Random(81)
    for _ in range(40):
        a, b = random_multipoly(rng, 3, 3), random_multipoly(rng, 3, 3)
        for p in (a + b, a - b, a * b, 6 * a, Fraction(4, 3) * a, a.diff(0), a.integrate_unit(1),
                  a.subst_const(2, Fraction(2, 3)), (a * b).eps_component(0)):
            assert p.den > 0 and math.gcd(p.den, *p.terms.values()) == 1
            assert all(type(v) is int and v for v in p.terms.values())
        assert (a * 2) * Fraction(1, 2) == a
    x = MultiPoly.variable(0, 1)
    assert len(((x + 1) * (x - 1)).terms) == 2  # the cross terms cancel inside the product


def _drawn(draw, seed, nvars, degree):
    """``(terms, den, next uniform)`` of one seeded draw: equal outcomes mean equal
    polynomials from the same ``rng`` calls."""
    rng = random.Random(seed)
    poly = draw(rng, nvars, degree)
    return poly.terms, poly.den, rng.random()


@pytest.mark.parametrize("nvars, degree", [(1, 3), (2, 1), (3, 3), (4, 2), (5, 3)])
def test_integer_draw_equals_the_fraction_draw(nvars, degree):
    for seed in range(2000):
        assert _drawn(random_multipoly, seed, nvars, degree) == _drawn(fraction_multipoly, seed, nvars, degree)


def test_integer_draw_at_the_exponent_limit_matches_the_fraction_draw():
    # seed 0, one variable: a term reaches EXP_LIMIT.  Seed 140: only the term
    # x0^41561 does, and its coefficient is 0.  Four variables: the first term
    # draws 50 494 of them, and none comes near the limit.
    degree = 2 * EXP_LIMIT
    for draw in (random_multipoly, fraction_multipoly):
        with pytest.raises(OverflowError):
            draw(random.Random(0), 1, degree)
    for seed, nvars in ((140, 1), (0, 4)):
        assert _drawn(random_multipoly, seed, nvars, degree) == _drawn(fraction_multipoly, seed, nvars, degree)

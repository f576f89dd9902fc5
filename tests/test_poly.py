"""Exact polynomial coefficient ring: calculus, grading, bookkeeping."""

import math
import random
from fractions import Fraction

import pytest

from exocalc.poly import MultiPoly, random_multipoly


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
    p = MultiPoly.constant(1, 1, trunc=2)
    assert p.scale_eps(3).is_zero()
    a = MultiPoly.variable(0, 1, trunc=2).scale_eps(1)
    assert (a * a).eps_grade() == 2
    assert (a * a * a).is_zero()


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

"""Exotic exterior calculus: exact identity checks with zero tolerance."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from exocalc.core import EPS_ORDER
from exocalc.forms import (
    DEFORMED,
    ExoticForm,
    PLAIN,
    d_squared_check,
    d_squared_obstruction,
    deformed_to_plain,
    dilated_connection,
    exotic_d,
    exterior_d,
    field_strength,
    homotopy_H,
    homotopy_lemma_check,
    pullback_at,
    random_form,
    random_linear_theta,
    wedge,
)
from exocalc.oracles import dense_deformed_to_plain, dense_exotic_d
from exocalc.poly import MultiPoly, random_multipoly


def zero_theta(dim):
    return (0,) * dim


def test_canonical_antisymmetric_storage():
    f = ExoticForm(3, 2)
    p = MultiPoly.variable(0, 3)
    f.insert((1, 0), p)
    assert f.component((0, 1)) == -p
    assert f.component((1, 0)) == p
    assert f.component((1, 1)).is_zero()


def _snapshot(form):
    return {idx: repr(poly) for idx, poly in form.coeffs.items()}


def _inserted(template, *parts):
    """Empty form shaped like ``template``, then every ``(idx, poly)`` inserted."""
    out = ExoticForm(template.dim, template.degree, template.basis, template.lambda_active)
    for items in parts:
        for idx, poly in items:
            out.insert(idx, poly)
    return out


def _inversions(perm):
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def _mixed_grades(rng, dim, degree, lambda_active):
    """Random form with coefficients at every ``eps`` grade up to 3."""
    shape = ExoticForm(dim, degree, lambda_active=lambda_active)
    grades = [random_form(rng, dim, degree, lambda_active=lambda_active) for _ in range(4)]
    return _inserted(shape, *(
        [(idx, poly.scale_eps(k)) for idx, poly in part.coeffs.items()]
        for k, part in enumerate(grades)
    ))


def test_form_algebra_agrees_with_insert_and_leaves_operands_unchanged():
    rng = random.Random(60)
    for dim in (2, 3, 4):
        for degree in range(dim + 1):
            for lam in (False, True):
                a = _mixed_grades(rng, dim, degree, lam)
                b = _mixed_grades(rng, dim, degree, lam)
                before = _snapshot(a), _snapshot(b)
                results = []

                total = a + b
                assert _snapshot(total) == _snapshot(_inserted(a, a.coeffs.items(), b.coeffs.items()))
                assert _snapshot(a - b) == _snapshot(a + (-1) * b)
                assert (a - a).is_zero()
                assert _snapshot(-(-a)) == _snapshot(a)
                assert _snapshot(2 * a) == _snapshot(a + a)
                results += [total, a - b, -a, 2 * a, a * 1]

                for key, poly in a.coeffs.items():
                    for perm in itertools.permutations(key):
                        sign = (-1) ** _inversions(perm)
                        assert a.component(perm) == sign * a.component(tuple(sorted(perm)))
                        assert a.component(perm) == sign * poly

                partial = _inserted(a)
                for k in range(EPS_ORDER + 1):
                    part = a.eps_component(k)
                    partial = partial + _inserted(
                        a, [(idx, poly.scale_eps(k)) for idx, poly in part.coeffs.items()]
                    )
                    truncated = a.eps_truncated(k)
                    assert _snapshot(truncated) == _snapshot(partial)
                    results += [part, truncated]
                assert _snapshot(partial) == _snapshot(a)

                if not lam:
                    ext = a.extend_with_lambda()
                    assert (ext.dim, ext.degree, ext.lambda_active) == (dim + 1, degree, True)
                    assert _snapshot(ext) == {
                        tuple(i + 1 for i in idx): repr(poly.promote()) for idx, poly in a.coeffs.items()
                    }
                    results.append(ext)

                # writing into a result must not reach back into an operand
                for out in results:
                    if out.degree <= out.dim:
                        out.insert(tuple(range(out.degree)), MultiPoly.constant(7, out.dim))
                assert (_snapshot(a), _snapshot(b)) == before


def test_deformed_to_plain_trivial():
    rng = random.Random(40)
    w = random_form(rng, 4, 2, basis=DEFORMED)
    out = deformed_to_plain(w, zero_theta(4))
    assert out.basis == PLAIN
    for idx, poly in w.coeffs.items():
        assert out.component(idx) == poly


def test_deformed_to_plain_one_form_extra_component():
    # a pure last-axis covector picks up a first-axis component x_last * theta'
    grad = (Fraction(1, 2), 0, 0)
    w = ExoticForm(3, 1, basis=DEFORMED)
    w.insert((2,), MultiPoly.constant(1, 3))
    out = deformed_to_plain(w, grad)
    assert out.component((2,)) == MultiPoly.constant(1, 3)
    expect = MultiPoly.variable(2, 3) * Fraction(1, 2)
    assert out.component((0,)) == expect.scale_eps(1)


def test_deformed_to_plain_two_form_rule():
    rng = random.Random(41)
    for _ in range(10):
        grad = random_linear_theta(rng, 4)
        w = random_form(rng, 4, 2, basis=DEFORMED)
        engine = deformed_to_plain(w, grad).eps_truncated(1)
        oracle = dense_deformed_to_plain(w, grad).eps_truncated(1)
        assert (engine - oracle).is_zero()


def test_deformed_to_plain_has_no_component_above_grade_one():
    # slot i deforms by x^i G with the same 1-form G = eps sum_j g_j dx^j,
    # so G ^ G = 0 leaves nothing at eps^2 or higher
    rng = random.Random(44)
    grade_one_seen = False
    for lam in (False, True):
        for base in range(1, 5):
            dim = base + 1 if lam else base
            for degree in range(dim + 1):
                for _ in range(3):
                    grad = random_linear_theta(rng, base)
                    w = random_form(rng, dim, degree, basis=DEFORMED, lambda_active=lam)
                    out = deformed_to_plain(w, grad)
                    assert (out - out.eps_truncated(1)).is_zero(), (lam, dim, degree)
                    grade_one_seen = grade_one_seen or not out.eps_component(1).is_zero()
    assert grade_one_seen


def test_wedge_products():
    rng = random.Random(42)
    n = 4
    odd = random_form(rng, n, 1)
    assert wedge(odd, odd).is_zero()

    a = ExoticForm(n, 1)
    a.insert((0,), MultiPoly.variable(0, n))
    b = ExoticForm(n, 1)
    b.insert((1,), MultiPoly.variable(1, n))
    prod = wedge(a, b)
    assert prod.component((0, 1)) == MultiPoly.variable(0, n) * MultiPoly.variable(1, n)

    for _ in range(10):
        k, l = rng.randint(0, 2), rng.randint(0, 2)
        w1 = random_form(rng, n, k)
        w2 = random_form(rng, n, l)
        lhs = wedge(w1, w2)
        rhs = wedge(w2, w1)
        if (k * l) % 2:
            rhs = -rhs
        assert (lhs - rhs).is_zero()


def test_exotic_d_flat_is_exterior_d():
    rng = random.Random(43)
    for _ in range(25):
        dim = rng.choice([2, 3, 4])
        w = random_form(rng, dim, rng.randint(0, dim - 1))
        assert (exotic_d(w, zero_theta(dim)) - exterior_d(w)).is_zero()


def test_exotic_d_zero_form_example():
    grad = (0, 0, Fraction(1, 3))
    f = ExoticForm(3, 0)
    f.insert((), MultiPoly.variable(0, 3))
    df = exotic_d(f, grad)
    assert df.component((0,)) == MultiPoly.constant(1, 3)
    dilat = (Fraction(1, 3) * MultiPoly.variable(0, 3)).scale_eps(1)
    assert df.component((2,)) == dilat
    assert df.component((1,)).is_zero()


def test_exotic_d_constant_is_zero():
    rng = random.Random(44)
    grad = random_linear_theta(rng, 4)
    f = ExoticForm(4, 0)
    f.insert((), MultiPoly.constant(Fraction(5, 3), 4))
    assert exotic_d(f, grad).is_zero()


def test_d_squared_flat_zero():
    rng = random.Random(45)
    for _ in range(10):
        dim = rng.choice([2, 3, 4])
        w = random_form(rng, dim, rng.randint(0, dim - 2))
        assert exotic_d(exotic_d(w, zero_theta(dim)), zero_theta(dim)).is_zero()


def test_d_squared_hand_example():
    # 0-form x0 over two coordinates with gradient (0, b):
    # the square is exactly eps*b dx0^dx1
    b = Fraction(2, 5)
    grad = (0, b)
    f = ExoticForm(2, 0)
    f.insert((), MultiPoly.variable(0, 2))
    residual, _ = d_squared_check(f, grad)
    rhs = d_squared_obstruction(f, grad)
    assert residual.is_zero()
    assert rhs.component((0, 1)) == MultiPoly.constant(b, 2).scale_eps(1)
    dd = exotic_d(exotic_d(f, grad), grad)
    assert (dd - rhs).is_zero()


def test_d_squared_residual_zero_every_grade():
    rng = random.Random(46)
    for _ in range(15):
        dim = rng.choice([2, 3, 4])
        grad = random_linear_theta(rng, dim)
        w = random_form(rng, dim, rng.randint(0, dim - 1))
        residual, _ = d_squared_check(w, grad)
        assert residual.is_zero()
        assert residual.eps_grade() == math.inf


def test_d_cubed_vanishes_for_linear_theta():
    rng = random.Random(47)
    for _ in range(15):
        dim = rng.choice([2, 3, 4])
        grad = random_linear_theta(rng, dim)
        w = random_form(rng, dim, rng.randint(0, dim - 1))
        ddd = exotic_d(exotic_d(exotic_d(w, grad), grad), grad)
        assert ddd.eps_grade() >= 2  # exactly zero, in fact
        assert ddd.is_zero()


def test_leibniz_constant_forms():
    grad = (Fraction(1, 2), Fraction(-1, 3), 0)
    a = ExoticForm(3, 1)
    a.insert((0,), MultiPoly.constant(2, 3))
    b = ExoticForm(3, 1)
    b.insert((2,), MultiPoly.constant(Fraction(-3, 4), 3))
    from exocalc.forms import leibniz_check

    assert leibniz_check(a, b, grad).is_zero()


def test_leibniz_exact():
    rng = random.Random(48)
    for _ in range(20):
        dim = rng.choice([2, 3, 4])
        grad = random_linear_theta(rng, dim)
        k = rng.randint(0, dim - 1)
        l = rng.randint(0, dim - 1)
        a = random_form(rng, dim, k)
        b = random_form(rng, dim, l)
        lhs = exotic_d(wedge(a, b), grad)
        rhs = wedge(exotic_d(a, grad), b)
        tail = wedge(a, exotic_d(b, grad))
        if k % 2:
            tail = -tail
        assert (lhs - rhs - tail).is_zero()


def test_homotopy_operator_basics():
    # no dlambda component: annihilated
    w = ExoticForm(3, 2, lambda_active=True)
    w.insert((1, 2), MultiPoly.variable(0, 3))
    assert homotopy_H(w).is_zero()

    # lambda dlambda integrates to 1/2
    w = ExoticForm(3, 1, lambda_active=True)
    w.insert((0,), MultiPoly.variable(0, 3))
    h = homotopy_H(w)
    assert h.degree == 0 and h.dim == 2
    assert h.component(()) == MultiPoly.constant(Fraction(1, 2), 2)


def test_homotopy_linear_and_nilpotent():
    rng = random.Random(49)
    for _ in range(10):
        nb = rng.choice([2, 3])
        w1 = random_form(rng, nb + 1, rng.randint(1, nb), lambda_active=True)
        w2 = random_form(rng, nb + 1, w1.degree, lambda_active=True)
        a, b = Fraction(3, 2), Fraction(-2, 7)
        lhs = homotopy_H(a * w1 + b * w2)
        rhs = a * homotopy_H(w1) + b * homotopy_H(w2)
        assert (lhs - rhs).is_zero()
        if w1.degree >= 1:
            hh = homotopy_H(w1)
            assert hh.lambda_active is False


def test_homotopy_squares_to_zero():
    # the image of H has no lambda slot, so a second application annihilates
    rng = random.Random(57)
    for _ in range(8):
        nb = rng.choice([2, 3])
        w = random_form(rng, nb + 1, rng.randint(1, nb), lambda_active=True)
        h = homotopy_H(w)
        assert homotopy_H(h.extend_with_lambda()).is_zero()


def test_homotopy_lemma_classical_example():
    # lambda * f(x) dx0^dx1 over a 2d base with flat theta
    f = MultiPoly.variable(1, 3) * MultiPoly.variable(2, 3)
    w = ExoticForm(3, 2, lambda_active=True)
    w.insert((1, 2), MultiPoly.variable(0, 3) * f)
    grad = zero_theta(2)
    residual = homotopy_lemma_check(w, grad)
    assert residual.is_zero()
    boundary = pullback_at(w, 1) - pullback_at(w, 0)
    assert boundary.component((0, 1)) == f.drop_leading_var()


def test_homotopy_lemma_dlambda_only():
    rng = random.Random(50)
    grad = random_linear_theta(rng, 3)
    w = ExoticForm(4, 2, lambda_active=True)
    w.insert((0, 2), random_multipoly(rng, 4, 2))
    assert pullback_at(w, 1).is_zero()
    assert pullback_at(w, 0).is_zero()
    h_d = homotopy_H(exotic_d(w, grad))
    d_h = exotic_d(homotopy_H(w), grad)
    assert (h_d + d_h).is_zero()


def test_homotopy_lemma_deformed_case():
    rng = random.Random(51)
    for _ in range(10):
        nb = rng.choice([2, 3])
        grad = random_linear_theta(rng, nb)
        w = random_form(rng, nb + 1, rng.randint(1, nb), lambda_active=True)
        residual = homotopy_lemma_check(w, grad)
        assert residual.is_zero()
        assert residual.eps_grade() == math.inf


def test_field_strength_flat_limit():
    rng = random.Random(52)
    n = 4
    a_comps = [random_multipoly(rng, n, 2) for _ in range(n)]
    fs = field_strength(a_comps, zero_theta(n))
    for mu in range(n):
        for nu in range(mu + 1, n):
            expect = a_comps[nu].diff(mu) - a_comps[mu].diff(nu)
            assert fs.component((mu, nu)) == expect


def test_field_strength_constant_connection_breaks_gauge():
    # constant connection: ordinary curvature vanishes, gradient term survives
    n = 3
    grad = (Fraction(1, 2), 0, Fraction(-1, 3))
    a_comps = [MultiPoly.constant(c, n) for c in (Fraction(2), Fraction(0), Fraction(1))]
    fs = field_strength(a_comps, grad)
    assert not fs.is_zero()
    assert fs.eps_grade() == 1
    for mu in range(n):
        for nu in range(mu + 1, n):
            expect = MultiPoly.constant(
                a_comps[mu].coefficient(0, (0,) * n) * grad[nu]
                - a_comps[nu].coefficient(0, (0,) * n) * grad[mu],
                n,
            ).scale_eps(1)
            assert fs.component((mu, nu)) == expect


@pytest.mark.parametrize("grad", [(1, 2, 3), (1,)])
def test_connection_builders_reject_a_gradient_of_the_wrong_length(grad):
    a_comps = [MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)]
    with pytest.raises(ValueError):
        field_strength(a_comps, grad)
    with pytest.raises(ValueError):
        dilated_connection(a_comps, grad)


def test_field_strength_cross_check_against_derivative():
    rng = random.Random(53)
    for _ in range(10):
        n = 4
        grad = random_linear_theta(rng, n)
        a_comps = [random_multipoly(rng, n, 2) for _ in range(n)]
        fs = field_strength(a_comps, grad)
        via_d = exotic_d(dilated_connection(a_comps, grad), grad)
        assert (fs - via_d.eps_truncated(1)).is_zero()
        assert (fs - via_d).eps_grade() >= 2


def test_gauge_shift_changes_field_strength_predictably():
    rng = random.Random(54)
    n = 3
    grad = random_linear_theta(rng, n)
    a_comps = [random_multipoly(rng, n, 2) for _ in range(n)]
    chi = random_multipoly(rng, n, 2)
    shifted = [a + chi.diff(mu) for mu, a in enumerate(a_comps)]
    delta = field_strength(shifted, grad) - field_strength(a_comps, grad)
    pure_gauge = field_strength([chi.diff(mu) for mu in range(n)], grad)
    assert (delta - pure_gauge).is_zero()
    # flat part of a pure-gauge connection is closed; only gradient terms remain
    assert pure_gauge.eps_grade() >= 1 or pure_gauge.is_zero()


def test_sparse_engine_matches_dense_route():
    rng = random.Random(55)
    for _ in range(8):
        dim = rng.choice([2, 3, 4])
        grad = random_linear_theta(rng, dim)
        w = random_form(rng, dim, rng.randint(0, dim - 1))
        assert (exotic_d(w, grad) - dense_exotic_d(w, grad)).is_zero()
        # the lambda slot 0 is left out of the sparse engine's Euler scan
        ext = random_form(rng, dim + 1, rng.randint(0, dim), lambda_active=True)
        assert (exotic_d(ext, grad) - dense_exotic_d(ext, grad)).is_zero()


def test_obstruction_matches_square_on_extended_forms():
    rng = random.Random(56)
    grad = random_linear_theta(rng, 3)
    w = random_form(rng, 4, 2, lambda_active=True)
    dd = exotic_d(exotic_d(w, grad), grad)
    assert (dd - d_squared_obstruction(w, grad)).is_zero()


def test_grade_projection_of_zero_form_derivative():
    grad = (0, 0, Fraction(1, 3))
    f = ExoticForm(3, 0)
    f.insert((), MultiPoly.variable(0, 3))
    df = exotic_d(f, grad)
    flat_part = df.eps_component(0)
    assert flat_part.component((0,)) == MultiPoly.constant(1, 3)
    assert flat_part.component((2,)).is_zero()
    tilt = df.eps_component(1)
    assert tilt.component((2,)) == Fraction(1, 3) * MultiPoly.variable(0, 3)


def test_basis_and_space_guards():
    grad = (0, 0)
    deformed = ExoticForm(2, 1, basis=DEFORMED)
    deformed.insert((0,), MultiPoly.constant(1, 2))
    with pytest.raises(ValueError):
        exotic_d(deformed, grad)
    with pytest.raises(ValueError):
        deformed_to_plain(ExoticForm(2, 1), grad)  # plain input to the expander

    plain = ExoticForm(2, 1)
    plain.insert((0,), MultiPoly.constant(1, 2))
    with pytest.raises(ValueError):
        wedge(plain, deformed)  # basis mismatch
    with pytest.raises(ValueError):
        wedge(plain, ExoticForm(3, 1))  # dimension mismatch
    with pytest.raises(ValueError):
        plain + ExoticForm(2, 2)  # degree mismatch
    with pytest.raises(ValueError):
        homotopy_H(plain)  # no lambda coordinate
    with pytest.raises(ValueError):
        pullback_at(plain, 1)
    with pytest.raises(ValueError):
        exotic_d(plain, (1, 2, 3))  # gradient length mismatch


def test_degree_and_dimension_guards():
    with pytest.raises(ValueError):
        bad = ExoticForm(2, 3)
        bad.insert((0, 1, 2), MultiPoly.constant(1, 2))
    f = ExoticForm(2, 2)
    f.insert((0, 1), MultiPoly.constant(1, 2))
    assert exotic_d(f, zero_theta(2)).is_zero()

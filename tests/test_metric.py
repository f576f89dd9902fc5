"""Deformed bilinear form, null structure, light cone, dual-space maps."""

import math
import random
from fractions import Fraction

import pytest

from exocalc.core import EpsSeries, eps_grade, minkowski_dot
from exocalc.metric import (
    bilinear_eval,
    degeneracy_witness,
    dual_coefficients,
    dual_obstruction,
    inner_product_dual,
    interval_2d,
    lightcone_velocity,
    metric_first_order,
    metric_full,
    metric_inverse_first_order,
    null_deviation,
    validity_ratio,
)
from helpers import rand_frac, rand_theta4, rand_vec4

FLAT = (0, 0, 0, 0)
DIAG = (1, -1, -1, -1)


def test_metric_full_flat_limit():
    g = metric_full((2, 3, 5, 7), FLAT)
    for a in range(4):
        for b in range(4):
            assert g[a][b] == (DIAG[a] if a == b else 0)


def test_metric_full_hand_values():
    beta = Fraction(2, 7)
    grad = (0, beta, 0, 0)
    g = metric_full((1, 0, 0, 0), grad)
    assert g[0][1] == beta
    assert g[1][1] == -1 + beta * beta

    g2 = metric_full((0, 1, 0, 0), grad)
    assert g2[1][1] == -((1 + beta) ** 2)


def test_metric_first_order_hand_values():
    beta = Fraction(1, 3)
    grad = (0, beta, 0, 0)
    g = metric_first_order((1, 0, 0, 0), grad)
    assert g[0][1] == beta
    for a in range(4):
        assert g[a][a] == DIAG[a]


def test_full_minus_first_order_is_grade_two():
    rng = random.Random(10)
    for _ in range(30):
        x = rand_vec4(rng)
        grad = rand_theta4(rng, eps=True)
        gf = metric_full(x, grad)
        g1 = metric_first_order(x, grad)
        for a in range(4):
            for b in range(4):
                assert eps_grade(gf[a][b] - g1[a][b]) >= 2


def test_inverse_first_order_values_and_contraction():
    beta = Fraction(3, 5)
    grad = (0, beta, 0, 0)
    gi = metric_inverse_first_order((1, 0, 0, 0), grad)
    assert gi[0][1] == beta  # -x^0 d^1 theta with the raised gradient sign

    gi_flat = metric_inverse_first_order((1, 2, 3, 4), FLAT)
    for a in range(4):
        for b in range(4):
            assert gi_flat[a][b] == (DIAG[a] if a == b else 0)

    rng = random.Random(11)
    for _ in range(30):
        x = rand_vec4(rng)
        grad = rand_theta4(rng, eps=True)
        lo = metric_first_order(x, grad)
        hi = metric_inverse_first_order(x, grad)
        for a in range(4):
            for b in range(4):
                contracted = sum(hi[a][c] * lo[c][b] for c in range(4))
                assert eps_grade(contracted - (1 if a == b else 0)) >= 2


def test_bilinear_flat_and_symmetry():
    rng = random.Random(12)
    for _ in range(1000):
        v, w, x = rand_vec4(rng), rand_vec4(rng), rand_vec4(rng)
        grad = rand_theta4(rng)
        assert bilinear_eval(v, w, x, grad) == bilinear_eval(w, v, x, grad)
    v, w = rand_vec4(rng), rand_vec4(rng)
    assert bilinear_eval(v, w, rand_vec4(rng), FLAT) == minkowski_dot(v, w)


def test_bilinear_matches_metric_contraction():
    rng = random.Random(13)
    for _ in range(50):
        v, w, x = rand_vec4(rng), rand_vec4(rng), rand_vec4(rng)
        grad = rand_theta4(rng)
        g = metric_full(x, grad)
        direct = bilinear_eval(v, w, x, grad)
        contracted = sum(g[a][b] * v[a] * w[b] for a in range(4) for b in range(4))
        assert direct == contracted


def test_null_vector_orthogonal_gradient_stays_null():
    # v null with gradient.v = 0 stays null for any point
    v = (1, 1, 0, 0)
    grad = (Fraction(1, 3), Fraction(-1, 3), Fraction(2, 5), 0)
    rng = random.Random(14)
    for _ in range(20):
        x = rand_vec4(rng)
        assert bilinear_eval(v, v, x, grad) == 0
        assert null_deviation(v, x, grad) == 0


def test_null_case_lightlike_point():
    # v null, x null, x.v = 0: take x = v
    v = (2, 2, 0, 0)
    rng = random.Random(15)
    for _ in range(20):
        grad = rand_theta4(rng)
        assert null_deviation(v, v, grad) == 0


def test_bilinear_is_flat_product_of_shifted_vectors():
    # the deformed pairing is the flat pairing of gradient-shifted vectors
    rng = random.Random(22)
    for _ in range(100):
        v, w, x = rand_vec4(rng), rand_vec4(rng), rand_vec4(rng)
        grad = rand_theta4(rng)
        gv = sum(g * c for g, c in zip(grad, v))
        gw = sum(g * c for g, c in zip(grad, w))
        shifted_v = tuple(v[m] + x[m] * gv for m in range(4))
        shifted_w = tuple(w[m] + x[m] * gw for m in range(4))
        assert bilinear_eval(v, w, x, grad) == minkowski_dot(shifted_v, shifted_w)


def test_null_deviation_equals_bilinear_identically():
    rng = random.Random(16)
    for _ in range(200):
        v, x = rand_vec4(rng), rand_vec4(rng)
        grad = rand_theta4(rng)
        assert null_deviation(v, x, grad) == bilinear_eval(v, v, x, grad)


def test_degeneracy_witness_basics():
    assert degeneracy_witness((0, 0, 0, 0), (1, 2, 3, 4), FLAT) == (0, 0, 0, 0)
    v = (3, 1, -2, 5)
    assert degeneracy_witness(v, (1, 1, 1, 1), FLAT) == (3, -1, 2, -5)


def test_constructed_degeneracy():
    # gradient.v = -1 and x = v makes the witness vanish
    v = (1, 2, 0, 0)
    grad = (Fraction(-1, 3), Fraction(-1, 3), 0, 0)
    witness = degeneracy_witness(v, v, grad)
    assert witness == (0, 0, 0, 0)
    rng = random.Random(17)
    for _ in range(100):
        w = rand_vec4(rng)
        assert bilinear_eval(v, w, v, grad) == 0


def test_interval_2d_trivial_and_numeric():
    assert interval_2d(Fraction(2), Fraction(1), 0, 0, 0, 0, Fraction(1)) == 3
    # c^2 dt^2 - dx^2 with c = 2
    assert interval_2d(Fraction(1), Fraction(1), 5, 7, 0, 0, Fraction(2)) == 3

    res = interval_2d(1.0, 0.99, 1.0, 0.0, 0.0, 0.01, 1.0)
    assert abs(res) < 5e-4


def test_interval_at_lightcone_velocity_is_grade_two():
    rng = random.Random(18)
    for _ in range(30):
        t, x, c = rand_frac(rng), rand_frac(rng), Fraction(rng.randint(1, 3))
        td = EpsSeries.eps(rand_frac(rng, -3, 3, 4))
        tp = EpsSeries.eps(rand_frac(rng, -3, 3, 4))
        dt = Fraction(rng.randint(1, 5))
        u_plus, u_minus = lightcone_velocity(t, x, td, tp, c)
        for u in (u_plus, u_minus):
            res = interval_2d(dt, u * dt, t, x, td, tp, c)
            assert eps_grade(res) >= 2


def test_lightcone_velocity_examples():
    assert lightcone_velocity(0, 0, 0, 0, 3) == (3, -3)
    u_plus, _ = lightcone_velocity(1.0, 0.0, 0.0, 0.01, 1.0)
    assert math.isclose(u_plus, 0.99)
    u_plus, _ = lightcone_velocity(0.0, 1.0, 0.02, 0.0, 1.0)
    assert math.isclose(u_plus, 0.98)


def test_dual_coefficients():
    phi = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert dual_coefficients(phi, (1, 1, 1, 1), FLAT) == phi

    # covector along the last axis, theta depending on the second coordinate:
    # an extra second-axis component phi_z * z * theta' appears
    phi_z = Fraction(5)
    zq = Fraction(3)
    tp = Fraction(1, 7)
    grad = (0, tp, 0, 0)
    out = dual_coefficients((0, 0, 0, phi_z), (0, 0, 0, zq), grad)
    assert out == (0, phi_z * zq * tp, 0, phi_z)

    # phi orthogonal to x: no dilatation
    phi = (1, -1, 0, 0)
    out = dual_coefficients(phi, (1, 1, 0, 0), rand_theta4(random.Random(19)))
    assert out == phi


def test_dual_obstruction():
    phi = (Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    x = (1, 1, 1, 1)
    assert not dual_obstruction(phi, x, FLAT)

    phix = sum(p * c for p, c in zip(phi, x))
    grad = tuple(-p / phix for p in phi)
    assert dual_obstruction(phi, x, grad)

    rng = random.Random(20)
    assert not dual_obstruction(rand_vec4(rng), rand_vec4(rng), rand_theta4(rng))

    with pytest.raises(ValueError):
        dual_obstruction((0, 0, 0, 0), x, FLAT)


def test_inner_product_dual():
    rng = random.Random(21)
    phi, v, x = rand_vec4(rng), rand_vec4(rng), rand_vec4(rng)
    plain = sum(p * c for p, c in zip(phi, v))
    assert inner_product_dual(phi, v, x, FLAT) == plain

    # orthogonal covector: plain pairing survives any topology
    phi = (1, 1, 0, 0)
    x = (1, -1, 2, 0)
    grad = rand_theta4(rng)
    v = rand_vec4(rng)
    assert inner_product_dual(phi, v, x, grad) == sum(p * c for p, c in zip(phi, v))

    # aligned case deformed by (phi.x)(grad.v)
    phi = x = (1, 2, 3, 4)
    expect = sum(p * c for p, c in zip(phi, v)) + sum(
        p * c for p, c in zip(phi, x)
    ) * sum(g * c for g, c in zip(grad, v))
    assert inner_product_dual(phi, v, x, grad) == expect


def test_validity_ratio():
    grad = (0.0, 0.01, 0.0, 0.0)
    assert validity_ratio((0, 0, 0, 0), grad) == 0
    assert math.isclose(validity_ratio((3, 4, 0, 0), grad), 5 * 0.01)

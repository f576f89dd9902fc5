"""Gamma representations, tetrads, deformed anticommutator, operator symbol."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from exocalc.clifford import (
    GammaRep,
    anticommutator,
    apply_exotic_kg,
    commutator,
    dagger,
    gamma_tilde,
    identity_matrix,
    kg_symbol,
    matrices_equal,
    tetrads,
)
from exocalc.core import MINKOWSKI_SIGNS, QI, EpsSeries, RationalComplex, eps_grade
from exocalc.metric import metric_inverse_first_order
from exocalc.oracles import dirac_apply_fd
from helpers import rand_frac, rand_theta4, rand_vec4

FLAT = (0, 0, 0, 0)


def conjugating_unitary():
    one = RationalComplex(1)
    zero = RationalComplex(0)
    return np.array(
        [
            [zero, one, zero, zero],
            [one, zero, zero, zero],
            [zero, zero, zero, QI],
            [zero, zero, -QI, zero],
        ],
        dtype=object,
    )


REPS = [
    GammaRep.dirac(),
    GammaRep.weyl(),
    GammaRep.conjugated(conjugating_unitary(), GammaRep.dirac()),
]


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_flat_clifford_relation_exact(rep):
    ident = identity_matrix()
    for mu in range(4):
        for nu in range(4):
            want = (2 * MINKOWSKI_SIGNS[mu] if mu == nu else 0) * ident
            got = anticommutator(rep.matrices[mu], rep.matrices[nu])
            assert matrices_equal(got, want)


def test_dirac_hermiticity():
    rep = GammaRep.dirac()
    assert matrices_equal(dagger(rep.matrices[0]), rep.matrices[0])
    for k in (1, 2, 3):
        neg = np.negative(rep.matrices[k])
        assert matrices_equal(dagger(rep.matrices[k]), neg)


def test_conjugated_requires_unitary():
    bad = np.array(
        [[RationalComplex(2), RationalComplex(0)] * 2] * 4, dtype=object
    ).reshape(4, 4)
    with pytest.raises(ValueError):
        GammaRep.conjugated(bad, GammaRep.dirac())


def test_float_equality_and_unitarity_check_reject_nan():
    ident = identity_matrix()
    with_nan = identity_matrix()
    with_nan[0, 0] = complex("nan")
    assert not matrices_equal(ident, with_nan)
    assert not matrices_equal(with_nan, ident)
    nan_diagonal = identity_matrix()
    for i in range(4):
        nan_diagonal[i, i] = complex("nan")
    with pytest.raises(ValueError, match="not unitary"):
        GammaRep.conjugated(nan_diagonal, GammaRep.dirac())


def test_matrices_equal_reads_exactness_from_the_entries():
    exact = GammaRep.dirac().matrices[2]
    nudged = exact.copy()
    nudged[0, 3] = nudged[0, 3] + Fraction(1, 10**15)
    assert not matrices_equal(exact, nudged)
    assert not matrices_equal(nudged, exact)
    floats = exact.astype(complex)
    assert matrices_equal(floats, floats + 1e-13)
    assert matrices_equal(floats + 1e-13, exact)


@pytest.mark.parametrize("exact_rep", REPS[:2], ids=lambda r: r.name)
def test_float_inputs_over_exact_matrices_match_the_complex_matrices(exact_rep):
    float_rep = GammaRep(exact_rep.as_complex(), f"{exact_rep.name}-complex")
    rng = random.Random(36)
    for _ in range(10):
        x = tuple(rng.uniform(-2, 2) for _ in range(4))
        grad = tuple(rng.uniform(-0.5, 0.5) for _ in range(4))
        p = tuple(rng.uniform(-3, 3) for _ in range(4))
        m = rng.uniform(0, 2)
        pairs = list(zip(gamma_tilde(x, grad, exact_rep), gamma_tilde(x, grad, float_rep)))
        pairs.append((kg_symbol(p, x, grad, m, exact_rep), kg_symbol(p, x, grad, m, float_rep)))
        for got, want in pairs:
            assert np.max(np.abs(got.astype(complex) - want.astype(complex))) <= 1e-12


def test_tetrads_flat_and_contractions():
    pair = tetrads((1, 2, 3, 4), FLAT)
    for mu in range(4):
        for al in range(4):
            want = 1 if mu == al else 0
            assert pair.up[mu][al] == want
            assert pair.down[mu][al] == want

    rng = random.Random(30)
    for _ in range(20):
        x = rand_vec4(rng)
        grad = rand_theta4(rng, eps=True)
        pair = tetrads(x, grad)
        frame = pair.contract_frame()
        coord = pair.contract_coord()
        for a in range(4):
            for b in range(4):
                want = 1 if a == b else 0
                assert eps_grade(frame[a][b] - want) >= 2
                assert eps_grade(coord[a][b] - want) >= 2


def test_tetrad_metric_reconstruction():
    rng = random.Random(31)
    for _ in range(20):
        x = rand_vec4(rng)
        grad = rand_theta4(rng, eps=True)
        rebuilt = tetrads(x, grad).inverse_metric()
        target = metric_inverse_first_order(x, grad)
        for mu in range(4):
            for nu in range(4):
                assert eps_grade(rebuilt[mu][nu] - target[mu][nu]) >= 2


def test_tetrad_covariant_metric_is_exactly_the_full_metric():
    from exocalc.metric import metric_full

    rng = random.Random(38)
    for _ in range(20):
        x = rand_vec4(rng)
        grad = rand_theta4(rng, eps=True)
        rebuilt = tetrads(x, grad).covariant_metric()
        full = metric_full(x, grad)
        for mu in range(4):
            for nu in range(4):
                assert rebuilt[mu][nu] == full[mu][nu]


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_gamma_tilde_flat_limit(rep):
    for mu, g in enumerate(gamma_tilde((1, 2, 3, 4), FLAT, rep)):
        assert matrices_equal(g, rep.matrices[mu])


def test_gamma_tilde_hand_contraction():
    beta = Fraction(2, 9)
    grad = tuple(EpsSeries.eps(g) for g in (0, beta, 0, 0))
    rep = GammaRep.dirac()
    gt = gamma_tilde((1, 0, 0, 0), grad, rep)
    # frame map sends the time gamma to gamma^0 - eps*beta*gamma^1
    for i in range(4):
        for j in range(4):
            got = gt[0][i, j]
            assert got.coeff(0) == rep.matrices[0][i, j]
            assert got.coeff(1) == -beta * rep.matrices[1][i, j]


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_deformed_anticommutator_grade_two(rep):
    rng = random.Random(32)
    for _ in range(6):
        x = rand_vec4(rng)
        grad = rand_theta4(rng, eps=True)
        gt = gamma_tilde(x, grad, rep)
        target = metric_inverse_first_order(x, grad)
        ident = identity_matrix()
        for mu in range(4):
            for nu in range(4):
                res = anticommutator(gt[mu], gt[nu]) - 2 * target[mu][nu] * ident
                grade = min(eps_grade(res[i, j]) for i in range(4) for j in range(4))
                assert grade >= 2


def test_lowered_anticommutator_matches_first_order_metric():
    # lowered frame gammas close on the covariant first-order metric at grade 1
    from exocalc.metric import metric_first_order, metric_full

    rep = GammaRep.dirac()
    rng = random.Random(33)
    for _ in range(5):
        x = rand_vec4(rng)
        grad = rand_theta4(rng, eps=True)
        pair = tetrads(x, grad)
        lowered = []
        for kappa in range(4):
            acc = None
            for al in range(4):
                term_scalar = pair.down[kappa][al] * MINKOWSKI_SIGNS[al]
                term = np.empty((4, 4), dtype=object)
                for i in range(4):
                    for j in range(4):
                        term[i, j] = term_scalar * rep.matrices[al][i, j]
                acc = term if acc is None else acc + term
            lowered.append(acc)
        first = metric_first_order(x, grad)
        full = metric_full(x, grad)
        ident = identity_matrix()
        for mu in range(4):
            for nu in range(4):
                res1 = anticommutator(lowered[mu], lowered[nu]) - 2 * first[mu][nu] * ident
                grade = min(eps_grade(res1[i, j]) for i in range(4) for j in range(4))
                assert grade >= 2
                # and exactly the full quadratic metric at every grade
                res2 = anticommutator(lowered[mu], lowered[nu]) - 2 * full[mu][nu] * ident
                assert all(
                    eps_grade(res2[i, j]) == math.inf for i in range(4) for j in range(4)
                )


def test_anticommutator_residual_numeric_slope():
    rng = random.Random(34)
    rep = GammaRep.dirac()
    x = (0.7, -0.4, 1.1, 0.3)
    base = (0.31, -0.22, 0.17, 0.08)
    eps_values = np.logspace(-4, -1, 7)
    norms = []
    for eps in eps_values:
        grad = tuple(g * eps for g in base)
        gt = gamma_tilde(x, grad, rep)
        target = metric_inverse_first_order(x, grad)
        worst = 0.0
        for mu in range(4):
            for nu in range(4):
                res = anticommutator(gt[mu], gt[nu]) - 2 * target[mu][nu] * identity_matrix()
                worst = max(
                    worst,
                    max(abs(complex(res[i, j])) for i in range(4) for j in range(4)),
                )
        norms.append(worst)
    slope = np.polyfit(np.log(eps_values), np.log(norms), 1)[0]
    assert abs(slope - 2.0) <= 0.05


def test_kg_symbol_trivial_and_structure():
    rep = GammaRep.dirac()
    p = (Fraction(3, 2), Fraction(1, 3), Fraction(-2, 5), Fraction(1))
    m = Fraction(2)
    sym = kg_symbol(p, (0, 0, 0, 0), (0, 0, 0, 0), m, rep)
    p2 = sum(MINKOWSKI_SIGNS[a] * p[a] * p[a] for a in range(4))
    ident = identity_matrix()
    assert matrices_equal(sym, (-p2 + m * m) * ident)


def test_kg_symbol_quadratic_in_momentum():
    # third differences along any momentum ray vanish identically
    rng = random.Random(35)
    rep = GammaRep.dirac()
    grad = rand_theta4(rng)
    x = rand_vec4(rng)
    m = Fraction(1)
    p = rand_vec4(rng)

    def sym(scale):
        return kg_symbol(tuple(scale * c for c in p), x, grad, m, rep)

    s0, s1, s2, s3 = sym(0), sym(1), sym(2), sym(3)
    third = s3 - 3 * s2 + 3 * s1 - s0
    assert all(not third[i, j] for i in range(4) for j in range(4))


def test_kg_symbol_affine_in_gradient_and_point():
    rng = random.Random(37)
    rep = GammaRep.dirac()
    m = Fraction(1)
    p = tuple(rand_frac(rng) for _ in range(4))

    g_a, g_b = (tuple(rand_frac(rng) for _ in range(4)) for _ in range(2))
    x = rand_vec4(rng)

    def at(grad, point):
        return kg_symbol(p, point, grad, m, rep)

    # affine in the gradient: M(ga + gb) + M(0) == M(ga) + M(gb)
    g_sum = tuple(a + b for a, b in zip(g_a, g_b))
    lhs = at(g_sum, x) + at((0, 0, 0, 0), x)
    rhs = at(g_a, x) + at(g_b, x)
    assert all(lhs[i, j] == rhs[i, j] for i in range(4) for j in range(4))

    # affine in the point
    x_a, x_b = rand_vec4(rng), rand_vec4(rng)
    x_sum = tuple(a + b for a, b in zip(x_a, x_b))
    lhs = at(g_a, x_sum) + at(g_a, (0, 0, 0, 0))
    rhs = at(g_a, x_a) + at(g_a, x_b)
    assert all(lhs[i, j] == rhs[i, j] for i in range(4) for j in range(4))


def test_kg_symbol_constraint_kills_commutator():
    rng = random.Random(36)
    rep = GammaRep.dirac()
    for _ in range(10):
        v = tuple(rand_frac(rng) for _ in range(4))
        if v[0] == 0:
            continue
        energy = rand_frac(rng)
        p = tuple(v[a] * energy / v[0] for a in range(4))
        sym = kg_symbol(p, (0, 0, 0, 0), v, Fraction(1), rep)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert not sym[i, j]
        assert all(sym[i, i] == sym[0, 0] for i in range(4))


def _plane_wave(p0, p1, times, xs):
    tt, xx = np.meshgrid(times, xs, indexing="ij")
    return np.exp(-1j * (p0 * tt + p1 * xx))


def test_apply_matches_symbol_scalar():
    times = np.linspace(0.3, 0.8, 161)
    xs = np.linspace(-0.2, 0.4, 161)
    td, tp, m = 0.03, 0.02, 1.0
    p0, p1 = 1.7, -0.9
    phi = _plane_wave(p0, p1, times, xs)
    grad = (td, tp, 0.0, 0.0)
    rep = GammaRep.dirac()

    out = apply_exotic_kg(phi, times, xs, td, tp, m, include_x_term=True)
    tt, xx = np.meshgrid(times[2:-2], xs[2:-2], indexing="ij")
    expect = np.empty_like(out)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            sym = kg_symbol((p0, p1, 0, 0), (tt[i, j], xx[i, j], 0, 0), grad, m, rep)
            expect[i, j] = sum(complex(sym[d, d]) for d in range(4)) / 4 * phi[i + 2, j + 2]
    h2 = max(times[1] - times[0], xs[1] - xs[0]) ** 2
    assert np.max(np.abs(out - expect)) < 5 * h2


def test_apply_trivial_plane_wave():
    times = np.linspace(0.0, 0.5, 161)
    xs = np.linspace(0.0, 0.6, 161)
    p0, p1 = 1.2, 0.8
    m = 1.0
    phi = _plane_wave(p0, p1, times, xs)
    out = apply_exotic_kg(phi, times, xs, 0.0, 0.0, m)
    expect = (m * m - (p0 * p0 - p1 * p1)) * phi[2:-2, 2:-2]
    assert np.max(np.abs(out - expect)) < 1e-4


def test_apply_spinor_overlay_matches_full_symbol():
    times = np.linspace(0.3, 0.8, 129)
    xs = np.linspace(-0.2, 0.4, 129)
    td, tp, m = 0.03, 0.02, 1.0
    p0, p1 = 1.4, 0.6
    phi = _plane_wave(p0, p1, times, xs)
    grad = (td, tp, 0.0, 0.0)
    rep = GammaRep.dirac()
    psi0 = np.array([0.3 + 0.1j, -0.2, 0.5j, 1.0])

    out = apply_exotic_kg(
        phi, times, xs, td, tp, m, include_x_term=True, spinor=psi0, rep=rep
    )
    tt, xx = np.meshgrid(times[2:-2], xs[2:-2], indexing="ij")
    expect = np.empty_like(out)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            sym = kg_symbol((p0, p1, 0, 0), (tt[i, j], xx[i, j], 0, 0), grad, m, rep)
            mat = np.array([[complex(sym[a, b]) for b in range(4)] for a in range(4)])
            expect[i, j] = mat @ psi0 * phi[i + 2, j + 2]
    assert np.max(np.abs(out - expect)) < 1e-4


def test_squared_dirac_consistency():
    # nested first-order applications match the assembled operator at first
    # order in the gradient: the excess over the stencil floor scales as eps^2
    rep = GammaRep.dirac()
    m = 1.0
    times = np.linspace(0.2, 0.7, 161)
    xs = np.linspace(-0.3, 0.3, 161)
    p0, p1 = 1.4, 0.6
    psi0 = np.array([0.4, -0.3 + 0.2j, 0.1j, 0.8])

    def residual(eps):
        td, tp = 0.05 * eps, 0.04 * eps
        phi = _plane_wave(p0, p1, times, xs)
        psi = phi[..., None] * psi0
        inner, t1, x1 = dirac_apply_fd(psi, times, xs, td, tp, -m, rep)
        nested, _, _ = dirac_apply_fd(inner, t1, x1, td, tp, +m, rep)
        direct = apply_exotic_kg(
            phi, times, xs, td, tp, m, include_x_term=True, spinor=psi0, rep=rep
        )
        return float(np.max(np.abs(nested + direct)))

    floor = residual(0.0)
    excess_1 = residual(1.0) - floor
    excess_half = residual(0.5) - floor
    assert floor < 1e-4
    assert excess_1 > 10 * floor
    assert 3.0 < excess_1 / excess_half < 5.5


def test_apply_rejects_small_grids():
    with pytest.raises(ValueError):
        apply_exotic_kg(
            np.zeros((4, 10), dtype=complex),
            np.linspace(0, 1, 4),
            np.linspace(0, 1, 10),
            0.0,
            0.0,
            1.0,
        )


def test_kg_symbol_exact_identity_coefficient():
    rep = GammaRep.dirac()
    ident = identity_matrix()
    assert matrices_equal(kg_symbol((0, 0, 0, 0), (0, 0, 0, 0), FLAT, Fraction(3), rep), 9 * ident)
    assert matrices_equal(commutator(ident, ident), 0 * ident)

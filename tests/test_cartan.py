"""Spinor <-> point dictionary and the double-cover conjugation action."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exocalc.cartan import (
    hermitian_to_point,
    lorentz_matrix,
    outer_matrix,
    point_to_hermitian,
    point_to_spinor,
    rotate_phase,
    sample_residuals,
    sl2c_act,
    spinor_to_point,
)
from exocalc.core import minkowski_dot

import cartan_reference as reference

ROOT2_4 = 2.0**0.25


def test_spinor_to_point_axis_examples():
    assert np.allclose(spinor_to_point((ROOT2_4, 0)), (1, 0, 0, 1))
    assert np.allclose(spinor_to_point((0, ROOT2_4)), (1, 0, 0, -1))


def test_spinor_to_point_always_null():
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        v = spinor_to_point(s)
        assert abs(minkowski_dot(v, v)) <= 1e-12 * max(1.0, v[0] ** 2)
        assert v[0] >= 0


def test_point_to_spinor_examples():
    z, c = point_to_spinor((1, 0, 0, 1))
    assert abs(z - ROOT2_4) < 1e-14 and abs(c) < 1e-14

    z, c = point_to_spinor((1, 1, 0, 0))
    assert abs(z - 2**-0.25) < 1e-14 and abs(c - 2**-0.25) < 1e-14


def test_point_spinor_roundtrip():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        s = (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        v = spinor_to_point(s)
        if v[0] < 1e-8:
            continue
        back = spinor_to_point(point_to_spinor(v))
        worst = max(worst, max(abs(a - b) for a, b in zip(v, back)) / max(1.0, v[0]))
    assert worst <= 1e-12


def test_point_to_spinor_phase_convention():
    # south-leaning null point exercises the rotated branch
    z_comp = -math.sqrt(4.0 - 0.3**2 - 0.4**2)
    z, c = point_to_spinor((2.0, 0.3, -0.4, z_comp))
    assert z.imag == pytest.approx(0.0, abs=1e-14)
    assert z.real >= 0


def test_point_to_spinor_rejections():
    with pytest.raises(ValueError):
        point_to_spinor((1, 0.5, 0, 0))  # not null
    with pytest.raises(ValueError):
        point_to_spinor((-1, 0, 0, 1))  # past-pointing


def test_outer_matrix_examples():
    v = outer_matrix((1, 0))
    assert np.allclose(v, [[1, 0], [0, 0]])
    assert np.allclose(spinor_to_point((1, 0)), (2**-0.5, 0, 0, 2**-0.5))

    rng = np.random.default_rng(3)
    for _ in range(100):
        s = (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        m = outer_matrix(s)
        assert np.allclose(m, m.conj().T)
        # rank-1 encoding of a null point: determinant vanishes
        assert abs(np.linalg.det(m)) <= 1e-12 * max(1.0, np.abs(m).max() ** 2)
        assert np.allclose(m, point_to_hermitian(spinor_to_point(s)), atol=1e-12)

    assert np.allclose(outer_matrix((0, 0)), np.zeros((2, 2)))
    assert spinor_to_point((0, 0)) == (0, 0, 0, 0)


def test_hermitian_encoding_quadratic_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = tuple(rng.normal(size=4))
        det = np.linalg.det(point_to_hermitian(v))
        assert abs(det - minkowski_dot(v, v) / 2) < 1e-12
        assert np.allclose(hermitian_to_point(point_to_hermitian(v)), v)


def test_sl2c_identity_and_boost():
    v = point_to_hermitian((1, 0, 0, 1))
    assert np.allclose(sl2c_act(np.eye(2), v), v)

    eta = 0.83
    lam = np.diag([np.exp(eta / 2), np.exp(-eta / 2)])
    boosted = hermitian_to_point(sl2c_act(lam, v))
    scale = math.cosh(eta) + math.sinh(eta)
    assert np.allclose(boosted, (scale, 0, 0, scale))


def test_sl2c_sign_blind_and_det_preserving():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        lam = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(lam)
        if abs(det) < 1e-6:
            continue
        lam /= np.sqrt(abs(det))
        s = (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        v = outer_matrix(s)
        out_plus = sl2c_act(lam, v)
        out_minus = sl2c_act(-lam, v)
        assert np.allclose(out_plus, out_minus)
        assert abs(np.linalg.det(out_plus) - np.linalg.det(v)) <= 1e-10 * max(
            1.0, float(np.abs(v).max() ** 2)
        )


def test_sl2c_rejects_non_unimodular():
    with pytest.raises(ValueError):
        sl2c_act(2 * np.eye(2), point_to_hermitian((1, 0, 0, 0)))


def test_conjugation_acts_as_the_extracted_lorentz_matrix():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(lam)
        if abs(det) < 1e-6:
            continue
        lam /= np.sqrt(abs(det))
        big = lorentz_matrix(lam)
        v = rng.normal(size=4)
        direct = hermitian_to_point(sl2c_act(lam, point_to_hermitian(v)))
        assert np.allclose(direct, big @ v, atol=1e-12)


def test_rotate_phase_double_cover():
    s = (0.7 + 0.2j, -0.3 + 1.1j)
    assert rotate_phase(s, 0.0) == s

    flipped = rotate_phase(s, 2 * math.pi)
    assert np.allclose(flipped, (-s[0], -s[1]))
    assert np.allclose(spinor_to_point(flipped), spinor_to_point(s))

    full = rotate_phase(s, 4 * math.pi)
    assert np.allclose(full, s)


def test_lorentz_matrix_double_cover_and_metric():
    rng = np.random.default_rng(6)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for _ in range(100):
        lam = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(lam)
        if abs(det) < 1e-6:
            continue
        lam /= np.sqrt(abs(det))
        big = lorentz_matrix(lam)
        assert np.allclose(big, lorentz_matrix(-lam))
        assert np.allclose(big.T @ eta @ big, eta, atol=1e-10)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


def _random_samples(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 12)).view(complex)
    return z[:, :2], z[:, 2:].reshape(n, 2, 2)


def test_scalar_call_forms_match_the_per_sample_formulas():
    spinors, lams = _random_samples(300, 8)
    spinors = np.concatenate([spinors, [[0, 0.7 - 1.3j], [0, 0], [1.1, 0], [0.5j, -2]]])
    for s in spinors:
        s = tuple(s.tolist())
        v = spinor_to_point(s)
        assert _bits(v) == _bits(reference.spinor_to_point(s))
        assert _bits(outer_matrix(s)) == _bits(reference.outer_matrix(s))
        if v[0] > 0:
            assert _bits(point_to_spinor(v)) == _bits(reference.point_to_spinor(v))
    for lam in lams:
        lam = lam / np.sqrt(abs(np.linalg.det(lam)))
        vm = reference.outer_matrix((0.3 - 0.4j, 1.2 + 0.1j))
        assert _bits(sl2c_act(lam, vm)) == _bits(reference.sl2c_act(lam, vm))


def test_stacked_kernels_repeat_the_per_sample_rows():
    spinors, lams = _random_samples(200, 9)
    v = spinor_to_point(spinors)
    assert _bits(v) == _bits([reference.spinor_to_point(s) for s in spinors])
    assert _bits(point_to_spinor(v)) == _bits([reference.point_to_spinor(p) for p in v])
    stack = outer_matrix(spinors)
    assert _bits(stack) == _bits([reference.outer_matrix(s) for s in spinors])
    lams = lams / np.sqrt(abs(np.linalg.det(lams)))[:, None, None]
    assert _bits(sl2c_act(lams, stack)) == _bits(
        [reference.sl2c_act(lam, m) for lam, m in zip(lams, stack)]
    )


def test_sample_residuals_edge_rows_match_the_per_sample_formulas():
    spinors, lams = _random_samples(6, 10)
    # rank-1 lam: |det lam| < 1e-8, so it is shifted by the identity first
    lams[1] = np.outer([1 + 2j, 2 - 1j], [0.5 - 1j, 3j])
    assert abs(np.linalg.det(lams[1])) < 1e-8
    # (0, chi) reaches the south branch with a vanishing first component, so
    # the phase is left alone; the zero spinor's roundtrip is 0 (t = 0)
    spinors[3] = (0, 0.7 - 1.3j)
    spinors[4] = (0, 0)
    got = list(zip(*sample_residuals(spinors, lams)))
    want = [reference.sample_cells(s, lam) for s, lam in zip(spinors, lams)]
    assert _bits(got) == _bits(want)
    assert got[4][0] == 0.0


_ENTRY = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=300)
@given(
    a=_ENTRY,
    b=_ENTRY,
    phase=st.floats(0.0, 2 * math.pi),
    log_det=st.floats(-9.0, 2.0),
    spinor=st.tuples(_ENTRY, _ENTRY),
    log_size=st.floats(-3.0, 3.0),
    lower=st.booleans(),
)
def test_det_residual_stays_within_a_few_ulp_on_its_rounding_scale(
    a, b, phase, log_det, spinor, log_size, lower
):
    """``det_residual`` is read on the scale ``(||lam||_F^2 t)^2`` of its
    rounding, so it stays within a few ulp for a raw ``|det lam|`` from 1e-9
    to 1e2 and spinors whose ``t`` spans twelve decades. ``lam`` is triangular,
    so its determinant is one product and passes the unimodular check at any
    size; a small raw determinant with an off-diagonal entry of order one
    leaves ``||lam||_F^2`` up to about 1e10 once ``lam`` is scaled."""
    d = 10.0**log_det * complex(math.cos(phase), math.sin(phase)) / a
    lam = np.array([[a, b], [0, d]])
    if lower:
        lam = lam.T
    s = np.array([spinor]) * 10.0**log_size
    (det_residual,) = sample_residuals(s, lam[None])[2]
    assert det_residual <= 4 * np.finfo(float).eps


def test_near_singular_lam_gives_rows_within_the_benchmark_tolerance():
    """A drawn ``lam`` of O(1) entries and raw ``|det|`` from 1e-8 to 1e-4 is
    unimodular only to about ``u ||lam||_F^2 / |det|`` once scaled, beyond
    ``sl2c_act``'s 1e-12 check; ``sample_residuals`` still gives its rows, the
    per-sample formulas' bits and residuals within the benchmark's tolerances."""
    rng = np.random.default_rng(3)
    n = 300
    a, b, c = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    det = 10.0 ** rng.uniform(-8.0, -4.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    lams = np.stack([np.stack([a, b], -1), np.stack([c, (det + b * c) / a], -1)], 1)
    spinors = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    raw = np.abs(np.linalg.det(lams))
    assert raw.min() >= 1e-8 and raw.max() <= 1e-4
    got = list(zip(*sample_residuals(spinors, lams)))
    assert _bits(got) == _bits([reference.sample_cells(s, lam) for s, lam in zip(spinors, lams)])
    assert max(max(row[:2]) for row in got) <= 1e-12
    assert max(row[2] for row in got) <= 1e-8


def test_stacked_rejections_match_the_scalar_ones():
    good = spinor_to_point(_random_samples(5, 11)[0])
    for bad in ((1, 0.5, 0, 0), (-1, 0, 0, 1)):
        with pytest.raises(ValueError) as scalar:
            point_to_spinor(bad)
        stack = np.concatenate([good[:2], [bad], good[2:]])
        with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
            point_to_spinor(stack)

    lams = np.stack([np.eye(2), 2 * np.eye(2), np.eye(2)]).astype(complex)
    v = point_to_hermitian((1, 0, 0, 1))
    with pytest.raises(ValueError) as scalar:
        sl2c_act(lams[1], v)
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        sl2c_act(lams, np.stack([v] * 3))

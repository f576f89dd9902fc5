"""Box kernel, parts identities, matrix relation, constrained spectrum."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from exocalc.clifford import X_TERM_SIGN, GammaRep, identity_matrix, kg_symbol
from exocalc.core import RationalComplex
from exocalc.dispersion import (
    DegenerateParameterError,
    constrained_momentum,
    constrained_spectrum,
    delta_sigma,
    fourier_parts_check,
    plane_wave_rates,
    spectrum_reference_approx,
)
from exocalc.oracles import delta_quadrature, spectrum_companion
from helpers import constant_factors, gaussian_factors, plane_wave_factors, rand_frac

UNIT_BOX = ((0.0, 1.0),) * 4
GAUSS_BOX = ((0.0, 1.3), (0.0, 1.0), (-0.5, 0.7), (0.2, 1.1))
BOXES = [
    UNIT_BOX,
    GAUSS_BOX,
    ((-0.4, 0.9), (-1.0, 1.0), (0.0, 0.5), (-0.3, 0.2)),
]
GAUSS_P = (1.3 + 0.2j, -0.7 + 0.1j, 1.1, -0.4)


def test_delta_at_zero_is_volume_exactly():
    for box in BOXES:
        assert delta_sigma((0, 0, 0, 0), box) == math.prod(hi - lo for lo, hi in box)


def test_delta_periodic_null():
    p = (2 * math.pi, 0, 0, 0)
    assert abs(delta_sigma(p, UNIT_BOX)) < 1e-14


def test_delta_matches_quadrature():
    rng = random.Random(60)
    worst = 0.0
    for box in BOXES:
        for _ in range(30):
            p0, *space = (complex(rng.uniform(-4, 4), rng.uniform(-1, 1)) for _ in range(4))
            p = (p0, *(-c for c in space))
            a = delta_sigma(p, box)
            b = delta_quadrature(p, box)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    assert worst < 1e-10


def test_delta_series_branch_continuity():
    tiny = (1e-8, -1e-9, 0, 0)
    a = delta_sigma(tiny, UNIT_BOX)
    b = delta_quadrature(tiny, UNIT_BOX)
    assert abs(a - b) < 1e-12


def gauss():
    return gaussian_factors([0.65, 0.5, 0.1, 0.65], [0.08, 0.07, 0.09, 0.06])


def test_parts_identities_gaussian():
    assert fourier_parts_check(gauss(), GAUSS_P, GAUSS_BOX) < 1e-9


def test_parts_identities_constant_and_plane_wave():
    p = (0.9, -1.4, 0.6, -0.3)
    assert fourier_parts_check(constant_factors(2.0), p, UNIT_BOX) < 1e-11
    factors = plane_wave_factors([0.8, -0.5, 1.2, 0.1])
    assert fourier_parts_check(factors, p, UNIT_BOX) < 1e-10


@pytest.mark.parametrize("order", [1, 2], ids=["first", "second"])
def test_parts_check_flags_a_wrong_derivative(order):
    """Scaling one axis's ``f'`` or ``f''`` by 1.01 breaks an identity by far
    more than the correct triple's residual."""
    factors = list(gauss())
    triple = list(factors[2])
    triple[order] = lambda z, fn=triple[order]: 1.01 * fn(z)
    factors[2] = tuple(triple)
    assert fourier_parts_check(factors, GAUSS_P, GAUSS_BOX) > 1e-7


def test_dispersion_matrix_on_shell_trivial():
    rep = GammaRep.dirac()
    m = Fraction(3, 2)
    mat = kg_symbol((m, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), m, rep)
    assert all(not mat[i, j] for i in range(4) for j in range(4))


def test_dispersion_matrix_constraint_offdiagonal_zero():
    rng = random.Random(61)
    rep = GammaRep.dirac()
    for _ in range(25):
        v = tuple(rand_frac(rng) for _ in range(4))
        if v[0] == 0:
            continue
        energy = RationalComplex(rand_frac(rng), rand_frac(rng))
        p = constrained_momentum(v, energy)
        mat = kg_symbol(p, (0, 0, 0, 0), v, Fraction(1), rep)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert not mat[i, j]


def test_dispersion_matrix_equals_symbol_without_x_term():
    # the symbol at x differs from the matrix relation M(p, 0) by the point term alone
    rng = random.Random(62)
    rep = GammaRep.dirac()
    for _ in range(20):
        v = tuple(rand_frac(rng) for _ in range(4))
        p_cov = tuple(rand_frac(rng) for _ in range(4))
        x = tuple(rand_frac(rng) for _ in range(4))
        m = Fraction(2, 3)
        vp = v[0] * p_cov[0] - sum(v[k] * p_cov[k] for k in (1, 2, 3))
        xp = sum(x[k] * p_cov[k] for k in range(4))
        diff = kg_symbol(p_cov, x, v, m, rep) - kg_symbol(p_cov, (0, 0, 0, 0), v, m, rep)
        want = X_TERM_SIGN * 2 * vp * xp * identity_matrix()
        assert all(diff[i, j] == want[i, j] for i in range(4) for j in range(4))


def test_constrained_spectrum_time_gradient():
    td, m = 0.02, 1.0
    e_plus, e_minus = constrained_spectrum((td, 0, 0, 0), m)
    root = math.sqrt(m * m - td * td / 4)
    assert e_plus == pytest.approx(root + 1j * td / 2)
    assert e_minus == pytest.approx(-root + 1j * td / 2)
    # underdamped regime: imaginary parts are exactly half the time gradient
    assert e_plus.imag == td / 2
    assert e_minus.imag == td / 2


def test_constrained_spectrum_trivial_limit_slope():
    m = 1.0
    deltas = np.logspace(-4, -1, 6)
    gaps = []
    for d in deltas:
        e_plus, _ = constrained_spectrum((d, 0, 0, 0), m)
        gaps.append(abs(e_plus.real - m))
    slope = np.polyfit(np.log(deltas), np.log(gaps), 1)[0]
    assert slope >= 2 - 0.05


def test_constrained_spectrum_rejects_degenerate():
    with pytest.raises(DegenerateParameterError):
        constrained_spectrum((0, 0.1, 0, 0), 1.0)
    with pytest.raises(DegenerateParameterError):
        constrained_spectrum((0.1, 0.1, 0, 0), 1.0)  # flat square vanishes


def test_constrained_spectrum_against_companion_oracle():
    rng = random.Random(63)
    for _ in range(50):
        v = (rng.uniform(0.01, 0.1), rng.uniform(0, 0.005), 0.0, 0.0)
        m = rng.uniform(0.5, 2.0)
        a = constrained_spectrum(v, m)
        b = spectrum_companion(v, m)
        assert abs(a[0] - b[0]) < 1e-12
        assert abs(a[1] - b[1]) < 1e-12


def test_reference_approx_imaginary_part_and_sign_report():
    td, gn, m = 0.01, 0.001, 1.0
    exact_plus, _ = constrained_spectrum((td, gn, 0, 0), m)
    ref_plus, _ = spectrum_reference_approx(td, gn, m)
    assert exact_plus.imag == ref_plus.imag  # both exactly td/2
    kappa2 = (gn / td) ** 2
    exact_corr = exact_plus.real - m
    ref_corr = ref_plus.real - m
    # the reference carries -kappa^2/2; the exact expansion carries +kappa^2/2
    assert ref_corr == pytest.approx(-m * kappa2 / 2)
    assert exact_corr == pytest.approx(+m * kappa2 / 2, rel=1e-2)
    print(
        f"kappa^2 real-correction sign: exact=+{exact_corr:.3e}, "
        f"reference={ref_corr:.3e} (opposite sign reported, not corrected)"
    )


def test_plane_wave_rates_examples():
    m = 1.0
    assert plane_wave_rates(0.7, m, 0.0, 0.0) == pytest.approx(
        math.sqrt(0.49 + 1.0)
    )
    w = plane_wave_rates(0.5, m, 0.02, 0.0)
    assert w.imag == pytest.approx(-0.01, abs=1e-12)
    assert abs(w.imag) == pytest.approx(0.01, abs=1e-12)
    w = plane_wave_rates(0.5, m, 0.0, 0.04)
    assert w.imag == pytest.approx(-0.04 * 0.5 / (2 * math.sqrt(1.25)), rel=1e-3)
    ks = [-1.5, -0.0, 0.0, 0.5, 2.0]
    ws = plane_wave_rates(np.array(ks), m, 0.02, 0.04)
    assert ws.tolist() == [complex(plane_wave_rates(k, m, 0.02, 0.04)) for k in ks]


def test_mode_rates_conjugate_to_aligned_spectrum_at_zero_wavenumber():
    # the 1+1D mode frequency and the aligned-spectrum root describe the
    # same damping; the two plane-wave conventions are conjugate
    for td, m in ((0.02, 1.0), (0.05, 1.3)):
        e_plus, _ = constrained_spectrum((td, 0, 0, 0), m)
        omega = plane_wave_rates(0.0, m, td, 0.0)
        assert abs(omega - e_plus.conjugate()) < 1e-14


def test_constrained_momentum_rejects_zero_v0():
    with pytest.raises(DegenerateParameterError):
        constrained_momentum((0, 1, 0, 0), 1.0)

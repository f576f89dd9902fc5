"""Acceptance criteria, one test per criterion, each printing a pass line.

Run ``pytest tests/test_acceptance.py -v -s`` for the per-criterion report.
Every tolerance is pinned here, none deferred.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from exocalc import cli
from exocalc.cartan import outer_matrix, point_to_spinor, rotate_phase, spinor_to_point
from exocalc.clifford import (
    GammaRep,
    anticommutator,
    gamma_tilde,
    identity_matrix,
    kg_symbol,
    matrices_equal,
    tetrads,
)
from exocalc.core import eps_grade
from exocalc.dispersion import (
    BoxRegion,
    constrained_momentum,
    constrained_spectrum,
    delta_sigma,
    spectrum_reference_approx,
)
from exocalc.forms import ExoticForm, exotic_d, exterior_d, random_form
from exocalc.metric import (
    bilinear_eval,
    metric_first_order,
    metric_full,
    metric_inverse_first_order,
    null_deviation,
)
from exocalc.oracles import delta_quadrature
from exocalc.pde import SimGrid, WavePacket, fit_decay_rate, simulate_time_domain, solve_ode_x, solve_ode_y
from helpers import rand_frac, rand_theta4, rand_vec4

FIXTURES = Path(__file__).parent / "fixtures"


def report(num, elapsed, detail=""):
    tail = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s){tail}")


def plain_d_oracle(form):
    """Independent ordinary exterior derivative (direct coefficient loop)."""
    out = ExoticForm(form.dim, form.degree + 1, trunc=form.trunc)
    if out.degree > out.dim:
        return out
    for idx, poly in form.coeffs.items():
        for n in range(form.dim):
            dn = poly.diff(n)
            if not dn.is_zero():
                out.insert((n,) + idx, dn)
    return out


def test_criterion_1_trivial_topology_regression():
    start = time.time()
    rng = random.Random(101)
    flat4 = (0, 0, 0, 0)

    # deformed metric collapses to the flat one, exactly
    for _ in range(50):
        x = rand_vec4(rng)
        for build in (metric_full, metric_first_order, metric_inverse_first_order):
            g = build(x, flat4)
            for a in range(4):
                for b in range(4):
                    want = (1, -1, -1, -1)[a] if a == b else 0
                    assert g[a][b] == want

    # deformed gammas collapse to the flat representation, exactly
    rep = GammaRep.dirac()
    for _ in range(10):
        x = rand_vec4(rng)
        for mu, g in enumerate(gamma_tilde(x, flat4, rep)):
            assert matrices_equal(g, rep.matrices[mu])

    # deformed derivative collapses to the ordinary one on 200 random forms
    for _ in range(200):
        dim = rng.choice([2, 3, 4])
        w = random_form(rng, dim, rng.randint(0, dim - 1))
        flat = (0,) * dim
        assert (exotic_d(w, flat) - exterior_d(w)).is_zero()
        assert (exotic_d(w, flat) - plain_d_oracle(w)).is_zero()

    # spectrum: the matrix relation is satisfied exactly on shell at zero gradient
    m = Fraction(3, 2)
    mat = kg_symbol((m, 0, 0, 0), (0, 0, 0, 0), flat4, m, rep)
    assert all(not mat[i, j] for i in range(4) for j in range(4))
    e_plus, e_minus = constrained_spectrum((1e-9, 0, 0, 0), 1.0)
    assert abs(e_plus - 1.0) < 1e-8 and abs(e_minus + 1.0) < 1e-8

    # frequency-domain problem reduces to the free oscillator
    omega, m_f = 2.0, 1.0
    sol = solve_ode_x(omega, m_f, 0.0, 0.0, bc=(1.0, 0.3))
    k = math.sqrt(omega**2 - m_f**2)
    assert sol.char_roots[0] == pytest.approx(1j * k, abs=1e-14)
    assert sol.char_roots[1] == pytest.approx(-1j * k, abs=1e-14)
    assert np.max(np.abs(sol.phi - sol.phi_closed)) < 1e-8

    elapsed = time.time() - start
    assert elapsed < 10
    report(1, elapsed, "flat limits exact in rational mode")


def test_criterion_2_symmetry_and_null_identity():
    start = time.time()
    rng = random.Random(102)
    for _ in range(1000):
        v, w, x = rand_vec4(rng), rand_vec4(rng), rand_vec4(rng)
        grad = rand_theta4(rng)
        assert bilinear_eval(v, w, x, grad) == bilinear_eval(w, v, x, grad)
        assert null_deviation(v, x, grad) == bilinear_eval(v, v, x, grad)
    elapsed = time.time() - start
    assert elapsed < 5
    report(2, elapsed, "1000 exact instances")


def test_criterion_3_first_order_structure():
    start = time.time()
    rng = random.Random(103)
    rep_exact = GammaRep.dirac()

    # symbolic: all three residual families sit at grade >= 2
    for _ in range(8):
        x = rand_vec4(rng)
        grad = rand_theta4(rng, eps=True)
        lo = metric_first_order(x, grad)
        hi = metric_inverse_first_order(x, grad)
        for a in range(4):
            for b in range(4):
                contracted = sum(hi[a][c] * lo[c][b] for c in range(4))
                assert eps_grade(contracted - (1 if a == b else 0)) >= 2
        pair = tetrads(x, grad)
        frame = pair.contract_frame()
        for a in range(4):
            for b in range(4):
                assert eps_grade(frame[a][b] - (1 if a == b else 0)) >= 2
        gt = gamma_tilde(x, grad, rep_exact)
        for mu in range(4):
            for nu in range(4):
                res = anticommutator(gt[mu], gt[nu]) - 2 * hi[mu][nu] * identity_matrix()
                assert min(eps_grade(res[i, j]) for i in range(4) for j in range(4)) >= 2

    # numeric: residual norms scale quadratically
    rep = GammaRep.dirac()
    x = (0.8, -0.5, 1.2, 0.4)
    base = (0.27, -0.19, 0.13, 0.07)
    eps_values = np.logspace(-4, -1, 7)
    norms = {"inverse": [], "tetrad": [], "anticommutator": []}
    for eps in eps_values:
        grad = tuple(g * eps for g in base)
        lo = metric_first_order(x, grad)
        hi = metric_inverse_first_order(x, grad)
        norms["inverse"].append(
            max(
                abs(sum(hi[a][c] * lo[c][b] for c in range(4)) - (1 if a == b else 0))
                for a in range(4)
                for b in range(4)
            )
        )
        frame = tetrads(x, grad).contract_frame()
        norms["tetrad"].append(
            max(abs(frame[a][b] - (1 if a == b else 0)) for a in range(4) for b in range(4))
        )
        gt = gamma_tilde(x, grad, rep)
        worst = 0.0
        for mu in range(4):
            for nu in range(4):
                res = anticommutator(gt[mu], gt[nu]) - 2 * hi[mu][nu] * identity_matrix()
                worst = max(
                    worst, max(abs(complex(res[i, j])) for i in range(4) for j in range(4))
                )
        norms["anticommutator"].append(worst)
    slopes = {}
    for name, values in norms.items():
        slope = np.polyfit(np.log(eps_values), np.log(values), 1)[0]
        slopes[name] = slope
        assert abs(slope - 2.0) <= 0.05, (name, slope)

    elapsed = time.time() - start
    assert elapsed < 10
    report(3, elapsed, "slopes " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()))


def test_criterion_4_appendix_identity_suite():
    start = time.time()
    grades = {name: set() for name in cli.FORMS_IDENTITIES}
    for seed in range(100):
        rows = cli.forms_identity_rows(seed, 4, 3)
        for name, _seed, _dim, _deg, grade, ok in rows:
            assert ok == "1", (name, seed, grade)
            grades[name].add(grade)
    # the stated contracts, strengthened where the engine is exact
    assert grades["leibniz"] == {"inf"}
    assert all(g == "inf" or int(g) >= 2 for g in grades["d_squared"])
    assert all(g == "inf" or int(g) >= 2 for g in grades["d_cubed"])
    assert all(g == "inf" or int(g) >= 1 for g in grades["homotopy"])
    assert all(g == "inf" or int(g) >= 2 for g in grades["field_strength"])
    elapsed = time.time() - start
    assert elapsed < 30
    report(4, elapsed, "100 seeds, residual grades all at contract or exact zero")


def test_criterion_5_dispersion():
    start = time.time()
    rng = random.Random(105)
    rep = GammaRep.dirac()

    # off-diagonal exactly zero under the alignment constraint
    from exocalc.core import RationalComplex

    for _ in range(50):
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

    # imaginary parts exactly half the time gradient in the underdamped regime
    for td in (0.004, 0.01, 0.02):
        e_plus, e_minus = constrained_spectrum((td, 0, 0, 0), 1.0)
        assert e_plus.imag == td / 2
        assert e_minus.imag == td / 2

    # leading imaginary part agrees with the reference expansion
    m = 1.0
    worst_im = 0.0
    sign_lines = []
    for td in (1e-3, 3e-3, 1e-2):
        for kappa in (0.0, 0.05, 0.1):
            gn = kappa * td
            e_plus, _ = constrained_spectrum((td, gn, 0, 0), m)
            ref_plus, _ = spectrum_reference_approx(td, gn, m)
            worst_im = max(worst_im, abs(e_plus.imag - ref_plus.imag) / m)
            if gn:
                sign_lines.append(
                    f"  kappa^2={kappa**2:.4f}: exact Re corr={e_plus.real - m:+.3e}, "
                    f"reference Re corr={ref_plus.real - m:+.3e}"
                )
    assert worst_im <= 1e-3
    print("kappa^2 real-correction sign comparison (reported, not asserted):")
    for line in sign_lines:
        print(line)

    elapsed = time.time() - start
    assert elapsed < 5
    report(5, elapsed, f"max |dIm E|/m = {worst_im:.1e}")


def test_criterion_6_box_kernel_vs_quadrature():
    start = time.time()
    rng = random.Random(106)
    boxes = [
        BoxRegion.cube(),
        BoxRegion(0.0, 1.3, ((0.0, 1.0), (-0.5, 0.7), (0.2, 1.1))),
        BoxRegion(-0.4, 0.9, ((-1.0, 1.0), (0.0, 0.5), (-0.3, 0.2))),
    ]
    worst = 0.0
    for box in boxes:
        assert delta_sigma((0, 0, 0, 0), box) == box.volume()
        for _ in range(100):
            p0, *space = (complex(rng.uniform(-4, 4), rng.uniform(-1, 1)) for _ in range(4))
            p = (p0, *(-c for c in space))
            a = delta_sigma(p, box)
            b = delta_quadrature(p, box)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    assert worst < 1e-10
    elapsed = time.time() - start
    assert elapsed < 60
    report(6, elapsed, f"300 momenta, worst rel err {worst:.1e}")


def test_criterion_7_ode_pipeline():
    start = time.time()
    rng = random.Random(107)
    for _ in range(10):
        omega = complex(rng.uniform(0.8, 2.2), rng.uniform(-0.08, 0.08))
        m, alpha, beta = 1.0, rng.uniform(-0.15, 0.15), rng.uniform(-0.4, 0.4)
        bc = (1.0, complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
        sol = solve_ode_x(omega, m, alpha, beta, bc=bc)
        scale = max(1.0, float(np.max(np.abs(sol.phi_closed))))
        assert np.max(np.abs(sol.phi - sol.phi_closed)) / scale < 1e-8

        sy = solve_ode_y(omega, m, alpha, beta, bc=bc)
        xs = np.linspace(0.0, 1.0, 41)
        from exocalc.pde import change_of_variable

        mapped = sy.at(change_of_variable(xs, beta))
        direct = sol.at(xs)
        assert np.max(np.abs(mapped - direct)) / scale < 1e-6

    omega, m, alpha = 1.4 + 0.02j, 1.0, 0.05
    bc = (1.0, 0.2 + 0.1j)
    devs = []
    for beta in (0.2, 0.1):
        exact = solve_ode_y(omega, m, alpha, beta, bc=bc)
        lin = solve_ode_y(omega, m, alpha, beta, bc=bc, linearized=True)
        devs.append(float(np.max(np.abs(exact.phi - lin.phi))))
    ratio = devs[0] / devs[1]
    assert 4 * 0.8 <= ratio <= 4 * 1.2

    elapsed = time.time() - start
    assert elapsed < 20
    report(7, elapsed, f"linearized-mode halving ratio {ratio:.2f}")


def test_criterion_8_quasinormal_damping():
    start = time.time()
    m = 1.0
    worst_rel = 0.0
    for td_over_m in (0.01, 0.02, 0.05):
        for k_over_m in (0.0, 0.5, 1.0):
            grid = SimGrid(0.0, 200.0, 2048, 0.08, 4096, bc="periodic", snapshot_stride=64)
            simulate_time_domain(
                grid,
                m,
                td_over_m * m,
                0.0,
                initial=WavePacket(100.0, 12.0, k_over_m * m),
            )
            rate = fit_decay_rate(grid, (float(grid.times[1]), float(grid.times[-1])))
            expect = td_over_m * m / 2
            worst_rel = max(worst_rel, abs(abs(rate) - expect) / expect)
    assert worst_rel < 0.02

    grid = SimGrid(0.0, 100.0, 1024, 0.02, 1000, bc="periodic", snapshot_stride=100)
    simulate_time_domain(grid, m, 0.0, 0.0, initial=WavePacket(50.0, 8.0, 0.5))
    drift = np.max(np.abs(grid.energies - grid.energies[0])) / grid.energies[0]
    assert drift < 1e-3

    rates = {}
    for key, k0 in (("right", 1.0), ("left", -1.0)):
        grid = SimGrid(0.0, 200.0, 1024, 0.16, 1024, bc="periodic", snapshot_stride=64)
        simulate_time_domain(grid, m, 0.0, 0.02, initial=WavePacket(100.0, 10.0, k0))
        rates[key] = fit_decay_rate(grid, (float(grid.times[1]), float(grid.times[-1])))
    assert rates["right"] * rates["left"] < 0

    elapsed = time.time() - start
    assert elapsed < 120
    report(
        8,
        elapsed,
        f"worst rate err {worst_rel * 100:.2f}%, energy drift {drift:.1e}, "
        f"split rates {rates['right']:+.4f}/{rates['left']:+.4f}",
    )


def test_criterion_9_cartan_suite():
    start = time.time()
    rng = np.random.default_rng(109)
    worst_round = 0.0
    worst_det = 0.0
    for _ in range(1000):
        raw = rng.normal(size=4)
        s = (complex(raw[0], raw[1]), complex(raw[2], raw[3]))
        norm = math.sqrt(abs(s[0]) ** 2 + abs(s[1]) ** 2)
        if norm < 1e-6:
            continue
        s = (s[0] / norm, s[1] / norm)
        v = spinor_to_point(s)
        back = spinor_to_point(point_to_spinor(v))
        worst_round = max(
            worst_round, max(abs(a - b) for a, b in zip(v, back)) / max(1.0, v[0])
        )
        worst_det = max(worst_det, abs(np.linalg.det(outer_matrix(s))))
    assert worst_round <= 1e-12
    assert worst_det <= 1e-14

    s = (0.6 + 0.3j, -0.2 + 0.7j)
    flipped = rotate_phase(s, 2 * math.pi)
    assert flipped == (-s[0], -s[1])
    assert spinor_to_point(flipped) == spinor_to_point(s)
    assert rotate_phase(s, 4 * math.pi) == s

    from exocalc.cartan import lorentz_matrix

    for _ in range(100):
        lam = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(lam)
        if abs(det) < 1e-6:
            continue
        lam /= np.sqrt(abs(det))
        assert np.allclose(lorentz_matrix(lam), lorentz_matrix(-lam), atol=1e-12)

    elapsed = time.time() - start
    assert elapsed < 5
    report(9, elapsed, f"roundtrip {worst_round:.1e}, det {worst_det:.1e}")


def test_criterion_10_cli_determinism_and_goldens(tmp_path):
    start = time.time()
    fast_args = {
        "metric": [],
        "lightcone": [],
        "spectrum": [],
        "simulate": [
            "--set", "grid.n_x=128",
            "--set", "grid.n_t=128",
            "--set", "grid.dt=0.3",
            "--set", "grid.snapshot_stride=32",
        ],
        "forms-check": ["--set", "seeds=5"],
        "cartan": ["--set", "samples=100"],
    }
    for command, extra in fast_args.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            code = cli.main(
                [command, "--out", str(out), "--seed", "11", *[str(e) for e in extra]]
            )
            assert code == 0
            outs.append(out)
        for name in sorted(p.name for p in outs[0].iterdir()):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                command,
                name,
            )

    # oracle-generated golden fixtures match the implementation byte-for-byte
    out = tmp_path / "golden"
    assert cli.main(["spectrum", "--out", str(out), "--seed", "42"]) == 0
    assert (out / "spectrum.csv").read_bytes() == (FIXTURES / "spectrum_golden.csv").read_bytes()
    assert cli.main(["forms-check", "--out", str(out), "--seed", "42"]) == 0
    assert (out / "forms_check.csv").read_bytes() == (
        FIXTURES / "forms_check_golden.csv"
    ).read_bytes()

    elapsed = time.time() - start
    report(10, elapsed, "byte-identical reruns and oracle goldens")

"""Independent verification routes for the main computational paths.

Every oracle here reaches its answer by a structurally different method
from the implementation it checks: adaptive quadrature instead of closed
forms, companion-matrix eigenvalues instead of the quadratic formula,
dense fully-antisymmetric coefficient arrays with explicit
antisymmetrization instead of canonical sparse storage, and nested
first-order stencils instead of the assembled second-order operator.
Golden fixtures are produced from these routes, never from the
implementation under test.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from .clifford import GammaRep
from .core import MINKOWSKI_SIGNS
from .dispersion import _quad_complex
from .forms import ExoticForm, PLAIN, _grad_for, _spatial_range
from .poly import MultiPoly


# -- box kernel by quadrature -------------------------------------------


def delta_quadrature(p_cov, box) -> complex:
    """Box kernel on four ``(lo, hi)`` intervals by per-axis adaptive quadrature."""
    value = 1.0 + 0.0j
    for c, (lo, hi) in zip(p_cov, box, strict=True):
        value *= _quad_complex(lambda z, c=complex(c): cmath.exp(1j * c * z), lo, hi)
    return value


# -- aligned spectrum by companion matrix --------------------------------


def spectrum_companion(v_cov, m: float) -> tuple:
    """Roots of the gradient-aligned quadratic via companion-matrix eigenvalues."""
    v0 = complex(v_cov[0])
    v2 = sum(MINKOWSKI_SIGNS[a] * complex(v_cov[a]) ** 2 for a in range(4))
    roots = np.roots([-v2 / (v0 * v0), 1j * v2 / v0, m * m])
    roots = sorted(roots, key=lambda z: -z.real)
    return complex(roots[0]), complex(roots[1])


# -- dense-array exterior calculus ---------------------------------------


def _parity(perm) -> int:
    sign = 1
    seen = list(perm)
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if seen[i] > seen[j]:
                sign = -sign
    return sign


def form_to_dense(form: ExoticForm) -> np.ndarray:
    """Fully antisymmetric coefficient array extending the canonical storage."""
    k = form.degree
    arr = np.empty((form.dim,) * k, dtype=object)
    zero = MultiPoly.zero(form.dim)
    for idx in np.ndindex(arr.shape):
        arr[idx] = zero
    for idx, poly in form.coeffs.items():
        for perm in permutations(range(k)):
            arr[tuple(idx[p] for p in perm)] = _parity(perm) * poly
    return arr


def _alternate(arr: np.ndarray, k: int, dim: int) -> dict:
    """Antisymmetrization ``(1/k!) sum_sigma sign(sigma) arr[sigma T]`` on increasing T."""
    out = {}
    norm = Fraction(1, math.factorial(k)) if k else Fraction(1)
    for idx in combinations(range(dim), k):
        total = MultiPoly.zero(dim)
        for perm in permutations(range(k)):
            entry = arr[tuple(idx[p] for p in perm)]
            if entry.is_zero():
                continue
            total = total + _parity(perm) * entry
        total = norm * total
        if not total.is_zero():
            out[idx] = total
    return out


def dense_exotic_d(form: ExoticForm, grad) -> ExoticForm:
    """Deformed exterior derivative through the dense coefficient route."""
    if form.basis != PLAIN:
        raise ValueError("dense route expects plain-basis input")
    g = _grad_for(form, grad)
    dim, k = form.dim, form.degree
    dense = form_to_dense(form)
    out = ExoticForm(dim, k + 1, PLAIN, form.lambda_active)
    if k + 1 > dim:
        return out
    spatial = list(_spatial_range(form))
    xs = [MultiPoly.variable(i, dim) for i in range(dim)]

    raw = np.empty((dim,) * (k + 1), dtype=object)
    for idx in np.ndindex(dense.shape):
        poly = dense[idx]
        scan = None
        if not poly.is_zero():
            for m_ in spatial:
                dm = poly.diff(m_)
                if dm.is_zero():
                    continue
                term = xs[m_] * dm
                scan = term if scan is None else scan + term
        for n in range(dim):
            val = poly.diff(n)
            if g[n] != 0 and scan is not None:
                val = val + (g[n] * scan).scale_eps(1)
            raw[(n,) + idx] = val
    sparse = _alternate(raw, k + 1, dim)
    for idx, poly in sparse.items():
        out.insert(idx, (k + 1) * poly)
    return out


def dense_deformed_to_plain(form: ExoticForm, grad) -> ExoticForm:
    """First-order deformed-to-plain coefficient rule on dense arrays.

    ``X[T] = A[T] + k eps g_{t1} sum_a x^a A[(a,) + T[1:]]``, then
    antisymmetrize; valid (and compared) at grades 0 and 1 only.
    """
    g = _grad_for(form, grad)
    dim, k = form.dim, form.degree
    dense = form_to_dense(form)
    xs = [MultiPoly.variable(i, dim) for i in range(dim)]
    raw = np.empty_like(dense)
    for idx in np.ndindex(dense.shape):
        val = dense[idx]
        if k > 0 and g[idx[0]] != 0:
            acc = None
            for a in range(dim):
                entry = dense[(a,) + idx[1:]]
                if entry.is_zero():
                    continue
                term = xs[a] * entry
                acc = term if acc is None else acc + term
            if acc is not None:
                val = val + (k * g[idx[0]] * acc).scale_eps(1)
        raw[idx] = val
    out = ExoticForm(dim, k, PLAIN, form.lambda_active)
    for idx, poly in _alternate(raw, k, dim).items():
        out.insert(idx, poly)
    return out


# -- nested first-order stencil application ------------------------------


def dirac_apply_fd(
    psi: np.ndarray,
    times: np.ndarray,
    xs: np.ndarray,
    theta_t: float,
    theta_x: float,
    mass_term: float,
    rep: GammaRep | None = None,
):
    """Apply ``i gt^mu d_mu + mass_term`` by centered stencils, trimming one layer.

    ``psi`` has shape (nt, nx, 4).  Returns the trimmed field together
    with the trimmed coordinate arrays so applications can be nested.
    """
    if rep is None:
        rep = GammaRep.dirac()
    nt, nx, _ = psi.shape
    dt = float(times[1] - times[0])
    dx = float(xs[1] - xs[0])
    psi_t = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2 * dt)
    psi_x = (psi[1:-1, 2:] - psi[1:-1, :-2]) / (2 * dx)
    core = psi[1:-1, 1:-1]
    t_in = np.asarray(times)[1:-1]
    x_in = np.asarray(xs)[1:-1]

    g = rep.as_complex()
    mix = theta_t * g[0] + theta_x * g[1]
    term_t = np.einsum("ab,ijb->ija", g[0], psi_t) - t_in[:, None, None] * np.einsum(
        "ab,ijb->ija", mix, psi_t
    )
    term_x = np.einsum("ab,ijb->ija", g[1], psi_x) - x_in[None, :, None] * np.einsum(
        "ab,ijb->ija", mix, psi_x
    )
    out = 1j * (term_t + term_x) + mass_term * core
    return out, t_in, x_in

"""Gamma-matrix layer: flat representations, deformed gammas, wave-operator symbol.

Sign bookkeeping, fixed once for the whole package: plane waves are the
family ``phi(x) = exp(-i p.x) psi0`` with ``p.x = p_0 x^0 + p_k x^k``
(covariant components), the conjugate family of the finite-region
transform kernel used on the momentum side.  Differentiating that family
forces the ``+i v.p`` first-derivative term, the ``+2 (v.p)(x.p)`` point
term (``X_TERM_SIGN``), and the commutator-term sign
(``COMMUTATOR_TERM_SIGN``).  The two constants below are the only places
the convention enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MINKOWSKI_SIGNS,
    QI,
    RationalComplex,
    ThetaField,
)

#: sign of the ``2 v^a x^m p_m p_a`` symbol term under the plane-wave family
X_TERM_SIGN = 1

#: sign multiplying the displayed ``(i/2) [gamma^a, gamma^b] v_a p_b`` term
COMMUTATOR_TERM_SIGN = -1


def _obj(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, val in enumerate(row):
            out[i, j] = val
    return out


def _conj_entry(v):
    return v.conjugate() if hasattr(v, "conjugate") else v


def dagger(m: np.ndarray) -> np.ndarray:
    """Entrywise conjugate transpose, valid for exact and float matrices."""
    n = m.shape[0]
    return _obj([[_conj_entry(m[j, i]) for j in range(n)] for i in range(n)])


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def _units(exact: bool):
    one = RationalComplex(1) if exact else 1.0 + 0.0j
    iu = QI if exact else 1j
    zero = RationalComplex(0) if exact else 0.0 + 0.0j
    return one, iu, zero


def identity_matrix(exact: bool = False) -> np.ndarray:
    one, _, zero = _units(exact)
    return _obj([[one if i == j else zero for j in range(4)] for i in range(4)])


def _spatial_gammas(exact: bool) -> tuple:
    """``gamma^1 .. gamma^3``, the same in the Dirac and the Weyl representation."""
    one, iu, zero = _units(exact)
    g1 = [[zero, zero, zero, one], [zero, zero, one, zero],
          [zero, -one, zero, zero], [-one, zero, zero, zero]]
    g2 = [[zero, zero, zero, -iu], [zero, zero, iu, zero],
          [zero, iu, zero, zero], [-iu, zero, zero, zero]]
    g3 = [[zero, zero, one, zero], [zero, zero, zero, -one],
          [-one, zero, zero, zero], [zero, one, zero, zero]]
    return tuple(_obj(g) for g in (g1, g2, g3))


@dataclass(frozen=True)
class GammaRep:
    """Four 4x4 matrices satisfying ``{g^m, g^n} = 2 eta^{mn} Id`` exactly.

    ``exact=True`` carries :class:`RationalComplex` entries so algebraic
    residuals can be asserted with zero tolerance.
    """

    matrices: tuple
    exact: bool
    name: str = "dirac"

    def __post_init__(self):
        ident = identity_matrix(self.exact)
        for mu in range(4):
            for nu in range(4):
                want = 2 * MINKOWSKI_SIGNS[mu] if mu == nu else 0
                got = anticommutator(self.matrices[mu], self.matrices[nu])
                expect = want * ident if want else 0 * ident
                if not matrices_equal(got, expect, exact=self.exact):
                    raise ValueError(
                        f"flat anticommutator violated at ({mu},{nu}) in rep {self.name!r}"
                    )

    @classmethod
    def dirac(cls, exact: bool = False) -> "GammaRep":
        one, _, zero = _units(exact)
        g0 = [[one, zero, zero, zero], [zero, one, zero, zero],
              [zero, zero, -one, zero], [zero, zero, zero, -one]]
        return cls((_obj(g0), *_spatial_gammas(exact)), exact, "dirac")

    @classmethod
    def weyl(cls, exact: bool = False) -> "GammaRep":
        one, _, zero = _units(exact)
        g0 = [[zero, zero, one, zero], [zero, zero, zero, one],
              [one, zero, zero, zero], [zero, one, zero, zero]]
        return cls((_obj(g0), *_spatial_gammas(exact)), exact, "weyl")

    @classmethod
    def conjugated(cls, u: np.ndarray, base: "GammaRep") -> "GammaRep":
        """Unitarily conjugated representation ``u g u^dagger``."""
        ud = dagger(u)
        ident = identity_matrix(base.exact)
        if not matrices_equal(u @ ud, ident, exact=base.exact):
            raise ValueError("conjugation matrix is not unitary")
        mats = tuple(u @ g @ ud for g in base.matrices)
        return cls(mats, base.exact, f"{base.name}-conjugated")

    def as_complex(self) -> tuple:
        """Float versions of the matrices for numerical work."""
        return tuple(
            np.array([[complex(g[i, j]) for j in range(4)] for i in range(4)])
            for g in self.matrices
        )

    def identity(self) -> np.ndarray:
        return identity_matrix(self.exact)


def matrices_equal(a: np.ndarray, b: np.ndarray, exact: bool) -> bool:
    """Entrywise equality: exact, or within 1e-12 for float matrices."""
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            if exact:
                if not a[i, j] == b[i, j]:
                    return False
            else:
                if abs(complex(a[i, j]) - complex(b[i, j])) > 1e-12:
                    return False
    return True


@dataclass(frozen=True)
class TetradPair:
    """Frame maps between deformed and flat coordinates.

    ``up[mu][alpha] = delta - x^mu d_alpha theta`` and
    ``down[mu][alpha] = delta + x^alpha d_mu theta``; the two contract to
    the identity up to grade-2 terms.
    """

    up: tuple
    down: tuple

    def contract_frame(self) -> list:
        """``sum_mu up[mu][a] down[mu][b]`` as a 4x4 table."""
        return [
            [sum(self.up[mu][a] * self.down[mu][b] for mu in range(4)) for b in range(4)]
            for a in range(4)
        ]

    def contract_coord(self) -> list:
        """``sum_alpha up[mu][alpha] down[nu][alpha]`` as a 4x4 table."""
        return [
            [sum(self.up[mu][al] * self.down[nu][al] for al in range(4)) for nu in range(4)]
            for mu in range(4)
        ]

    def inverse_metric(self) -> list:
        """Reconstruction ``g^{mn} = up[m][a] up[n][b] eta^{ab}`` (all grades)."""
        return [
            [
                sum(MINKOWSKI_SIGNS[al] * self.up[mu][al] * self.up[nu][al] for al in range(4))
                for nu in range(4)
            ]
            for mu in range(4)
        ]

    def covariant_metric(self) -> list:
        """Reconstruction ``g_{mn} = down[m][a] down[n][b] eta_{ab}`` (all grades).

        Carries the quadratic gradient term, so it matches the full
        deformed metric exactly, not just at first order.
        """
        return [
            [
                sum(
                    MINKOWSKI_SIGNS[al] * self.down[mu][al] * self.down[nu][al]
                    for al in range(4)
                )
                for nu in range(4)
            ]
            for mu in range(4)
        ]


def tetrads(x: Sequence, theta: ThetaField) -> TetradPair:
    grad = theta.grad(x)
    up = tuple(
        tuple((1 if mu == al else 0) - x[mu] * grad[al] for al in range(4))
        for mu in range(4)
    )
    down = tuple(
        tuple((1 if mu == al else 0) + x[al] * grad[mu] for al in range(4))
        for mu in range(4)
    )
    return TetradPair(up, down)


def gamma_tilde(x: Sequence, theta: ThetaField, rep: GammaRep) -> tuple:
    """Deformed gammas ``gt^mu = up[mu][alpha] gamma^alpha``."""
    frame = tetrads(x, theta).up
    out = []
    for mu in range(4):
        acc = None
        for al in range(4):
            term = _scale(frame[mu][al], rep.matrices[al])
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def _scale(s, m: np.ndarray) -> np.ndarray:
    return _obj([[s * m[i, j] for j in range(m.shape[0])] for i in range(m.shape[0])])


def symbol_matrix(p_cov: Sequence, v_cov: Sequence, m, rep: GammaRep, x_term=0):
    """Shared builder for the momentum-side matrix relation.

    ``(-p^2 + m^2 + i v.p + x_term) Id + COMMUTATOR_TERM_SIGN * (i/2)
    [gamma^a, gamma^b] v_a p_b`` with all contractions through the flat
    metric.  ``x_term`` carries the point-dependent scalar when enabled.
    """
    _, iu, _ = _units(rep.exact)
    p2 = sum(MINKOWSKI_SIGNS[a] * p_cov[a] * p_cov[a] for a in range(4))
    vp = sum(MINKOWSKI_SIGNS[a] * v_cov[a] * p_cov[a] for a in range(4))
    scalar = -p2 + m * m + iu * vp + x_term
    out = _scale(scalar, rep.identity())
    half = _units(rep.exact)[1] * COMMUTATOR_TERM_SIGN
    for a in range(4):
        for b in range(4):
            coef = v_cov[a] * p_cov[b]
            if coef == 0 or a == b:
                continue
            out = out + _scale(half * coef / 2, commutator(rep.matrices[a], rep.matrices[b]))
    return out


def kg_symbol(
    p_cov: Sequence,
    x: Sequence,
    theta: ThetaField,
    m,
    rep: GammaRep | None = None,
    include_x_term: bool = True,
):
    """Matrix ``M(p, x)`` acting on the plane-wave family at the point ``x``.

    Applying the deformed wave operator to ``exp(-i p.x) psi0`` gives
    ``M psi0 exp(-i p.x)``; ``M`` is quadratic in ``p`` with coefficients
    linear in the gradient and in ``x``.
    """
    if rep is None:
        rep = GammaRep.dirac()
    v_cov = theta.grad(x)
    x_term = 0
    if include_x_term:
        vp = sum(MINKOWSKI_SIGNS[a] * v_cov[a] * p_cov[a] for a in range(4))
        xp = sum(x[mu] * p_cov[mu] for mu in range(4))
        x_term = X_TERM_SIGN * 2 * vp * xp
    return symbol_matrix(p_cov, v_cov, m, rep, x_term=x_term)


def apply_exotic_kg(
    phi: np.ndarray,
    times: np.ndarray,
    xs: np.ndarray,
    theta_t: float,
    theta_x: float,
    m: float,
    include_x_term: bool = False,
    spinor: np.ndarray | None = None,
    rep: GammaRep | None = None,
) -> np.ndarray:
    """Centered-stencil application of the deformed wave operator in 1+1D.

    ``phi`` is sampled on the uniform grid ``times x xs``; the result is
    the operator value trimmed by two ghost layers on every edge, so
    nested first-order applications stay second-order accurate.

    For a scalar field the commutator term acts through the identity and
    is omitted; passing ``spinor`` returns the 4-component overlay
    ``scalar_part * spinor + (1/2)(th_t phi_x - th_x phi_t) [g0, g1] spinor``.
    """
    phi = np.asarray(phi)
    nt, nx = phi.shape
    if nt < 5 or nx < 5:
        raise ValueError("grid too small for the two ghost layers")
    dt = float(times[1] - times[0])
    dx = float(xs[1] - xs[0])
    if not np.allclose(np.diff(times), dt) or not np.allclose(np.diff(xs), dx):
        raise ValueError("stencils require uniform grid spacing")

    g = 2  # ghost layers
    c = np.s_[g:nt - g, g:nx - g]
    up = np.s_[g + 1:nt - g + 1, g:nx - g]
    dn = np.s_[g - 1:nt - g - 1, g:nx - g]
    rt = np.s_[g:nt - g, g + 1:nx - g + 1]
    lf = np.s_[g:nt - g, g - 1:nx - g - 1]

    phi_t = (phi[up] - phi[dn]) / (2 * dt)
    phi_x = (phi[rt] - phi[lf]) / (2 * dx)
    phi_tt = (phi[up] - 2 * phi[c] + phi[dn]) / (dt * dt)
    phi_xx = (phi[rt] - 2 * phi[c] + phi[lf]) / (dx * dx)

    out = phi_tt - phi_xx + m * m * phi[c] - theta_t * phi_t + theta_x * phi_x

    if include_x_term:
        ur = np.s_[g + 1:nt - g + 1, g + 1:nx - g + 1]
        ul = np.s_[g + 1:nt - g + 1, g - 1:nx - g - 1]
        dr = np.s_[g - 1:nt - g - 1, g + 1:nx - g + 1]
        dl = np.s_[g - 1:nt - g - 1, g - 1:nx - g - 1]
        phi_tx = (phi[ur] - phi[ul] - phi[dr] + phi[dl]) / (4 * dt * dx)
        tcol = np.asarray(times)[g:nt - g, None]
        xrow = np.asarray(xs)[None, g:nx - g]
        out = out + (
            -2 * theta_t * tcol * phi_tt
            + 2 * (theta_x * tcol - theta_t * xrow) * phi_tx
            + 2 * theta_x * xrow * phi_xx
        )

    if spinor is None:
        return out
    if rep is None:
        rep = GammaRep.dirac()
    gam = rep.as_complex()
    c01 = gam[0] @ gam[1] - gam[1] @ gam[0]
    overlay = 0.5 * (theta_t * phi_x - theta_x * phi_t)
    spinor = np.asarray(spinor, dtype=complex)
    return out[..., None] * spinor + overlay[..., None] * (c01 @ spinor)

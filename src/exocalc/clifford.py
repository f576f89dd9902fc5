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

from .core import MINKOWSKI_SIGNS, QI, contract, minkowski_dot

#: sign of the ``2 v^a x^m p_m p_a`` symbol term under the plane-wave family
X_TERM_SIGN = 1

#: sign multiplying the displayed ``(i/2) [gamma^a, gamma^b] v_a p_b`` term
COMMUTATOR_TERM_SIGN = -1


def _obj(rows) -> np.ndarray:
    return np.array(rows, dtype=object)


def dagger(m: np.ndarray) -> np.ndarray:
    """Entrywise conjugate transpose, valid for exact and float matrices.

    Every entry must have ``conjugate()``, as ``int``, ``Fraction``,
    ``float``, ``complex`` and :class:`RationalComplex` do.
    """
    return _obj(m).T.conj()


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def identity_matrix() -> np.ndarray:
    """``int`` identity; ``int`` combines exactly with every entry type in use."""
    return _obj([[1 if i == j else 0 for j in range(4)] for i in range(4)])


def _spatial_gammas() -> tuple:
    """``gamma^1 .. gamma^3``, the same in the Dirac and the Weyl representation."""
    g1 = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    g2 = [[0, 0, 0, -QI], [0, 0, QI, 0], [0, QI, 0, 0], [-QI, 0, 0, 0]]
    g3 = [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]
    return tuple(_obj(g) for g in (g1, g2, g3))


@dataclass(frozen=True)
class GammaRep:
    """Four 4x4 matrices satisfying ``{g^m, g^n} = 2 eta^{mn} Id`` exactly.

    The entries are exact (``int`` and :data:`~exocalc.core.QI`), so
    algebraic residuals can be asserted with zero tolerance.  Float work
    gets floats from the scalars it passes in, or calls :meth:`as_complex`.
    """

    matrices: tuple
    name: str = "dirac"

    def __post_init__(self):
        ident = identity_matrix()
        for mu in range(4):
            for nu in range(4):
                want = 2 * MINKOWSKI_SIGNS[mu] if mu == nu else 0
                got = anticommutator(self.matrices[mu], self.matrices[nu])
                if not matrices_equal(got, want * ident):
                    raise ValueError(
                        f"flat anticommutator violated at ({mu},{nu}) in rep {self.name!r}"
                    )

    @classmethod
    def dirac(cls) -> "GammaRep":
        g0 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        return cls((_obj(g0), *_spatial_gammas()), "dirac")

    @classmethod
    def weyl(cls) -> "GammaRep":
        g0 = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        return cls((_obj(g0), *_spatial_gammas()), "weyl")

    @classmethod
    def conjugated(cls, u: np.ndarray, base: "GammaRep") -> "GammaRep":
        """Unitarily conjugated representation ``u g u^dagger``."""
        ud = dagger(u)
        if not matrices_equal(u @ ud, identity_matrix()):
            raise ValueError("conjugation matrix is not unitary")
        mats = tuple(u @ g @ ud for g in base.matrices)
        return cls(mats, f"{base.name}-conjugated")

    def as_complex(self) -> tuple:
        """Float versions of the matrices for numerical work."""
        return tuple(g.astype(complex) for g in self.matrices)


def matrices_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Entrywise equality, exact unless an entry on either side is a ``float`` or ``complex``.

    Then the entries must agree within 1e-12, and a NaN entry makes the
    matrices unequal.
    """
    if any(isinstance(e, (float, complex)) for e in (*a.flat, *b.flat)):
        return bool(np.all(np.abs(a.astype(complex) - b.astype(complex)) <= 1e-12))
    return bool(np.all(a == b))


@dataclass(frozen=True)
class TetradPair:
    """Frame maps between deformed and flat coordinates.

    ``up[mu, alpha] = delta - x^mu d_alpha theta`` and
    ``down[mu, alpha] = delta + x^alpha d_mu theta``, both 4x4 object
    arrays; the two contract to the identity up to grade-2 terms.  Each
    contraction returns a 4x4 object array, indexed ``[a][b]`` or ``[a, b]``.
    """

    up: np.ndarray
    down: np.ndarray

    def contract_frame(self) -> np.ndarray:
        """``sum_mu up[mu][a] down[mu][b]`` as a 4x4 object array."""
        return self.up.T @ self.down

    def contract_coord(self) -> np.ndarray:
        """``sum_alpha up[mu][alpha] down[nu][alpha]`` as a 4x4 object array."""
        return self.up @ self.down.T

    def inverse_metric(self) -> np.ndarray:
        """Reconstruction ``g^{mn} = up[m][a] up[n][b] eta^{ab}`` (all grades)."""
        return (self.up * MINKOWSKI_SIGNS) @ self.up.T

    def covariant_metric(self) -> np.ndarray:
        """Reconstruction ``g_{mn} = down[m][a] down[n][b] eta_{ab}`` (all grades).

        Carries the quadratic gradient term, so it matches the full
        deformed metric exactly, not just at first order.
        """
        return (self.down * MINKOWSKI_SIGNS) @ self.down.T


def tetrads(x: Sequence, grad: Sequence) -> TetradPair:
    """Frame maps at ``x`` from ``grad``, the covariant theta gradient at ``x``."""
    up = _obj([
        [(1 if mu == al else 0) - x[mu] * grad[al] for al in range(4)]
        for mu in range(4)
    ])
    down = _obj([
        [(1 if mu == al else 0) + x[al] * grad[mu] for al in range(4)]
        for mu in range(4)
    ])
    return TetradPair(up, down)


def gamma_tilde(x: Sequence, grad: Sequence, rep: GammaRep) -> tuple:
    """Deformed gammas ``gt^mu = up[mu][alpha] gamma^alpha``."""
    return tuple(
        sum(s * g for s, g in zip(row, rep.matrices))
        for row in tetrads(x, grad).up
    )


def kg_symbol(p_cov: Sequence, x: Sequence, v_cov: Sequence, m, rep: GammaRep | None = None):
    """Matrix ``M(p, x)`` acting on the plane-wave family at the point ``x``.

    Applying the deformed wave operator to ``exp(-i p.x) psi0`` gives
    ``M psi0 exp(-i p.x)`` with

        ``M = (-p^2 + m^2 + i v.p + X_TERM_SIGN 2 (v.p)(x.p)) Id
        + COMMUTATOR_TERM_SIGN (i/2) [gamma^a, gamma^b] v_a p_b``,

    ``v = v_cov`` the covariant theta gradient at ``x`` and every
    contraction of two covariant vectors through the flat metric.  The
    point term vanishes at ``x = 0``, so the momentum-side matrix
    dispersion relation is ``M(p, 0)``.  Runs exactly when fed exact
    scalars, and in floats when fed floats.
    """
    if rep is None:
        rep = GammaRep.dirac()
    vp = minkowski_dot(v_cov, p_cov)
    x_term = X_TERM_SIGN * 2 * vp * contract(p_cov, x)
    out = (-minkowski_dot(p_cov, p_cov) + m * m + QI * vp + x_term) * identity_matrix()
    half = QI * COMMUTATOR_TERM_SIGN
    for a in range(4):
        for b in range(4):
            coef = v_cov[a] * p_cov[b]
            if coef == 0 or a == b:
                continue
            out = out + half * coef / 2 * commutator(rep.matrices[a], rep.matrices[b])
    return out


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
    c01 = commutator(gam[0], gam[1])
    overlay = 0.5 * (theta_t * phi_x - theta_x * phi_t)
    spinor = np.asarray(spinor, dtype=complex)
    return out[..., None] * spinor + overlay[..., None] * (c01 @ spinor)

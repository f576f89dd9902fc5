"""Deformed bilinear form, degeneracy analysis, light cone, and dual-space maps.

The flat metric picks up point-dependent corrections built from ``x`` and
the theta gradient.  Two truncations are carried: the full quadratic form
and the first-order form actually used by the dynamics.  Indices are
raised and lowered with the flat Minkowski metric only; the deformed form
is never used as an isomorphism (it can degenerate, and degenerate
configurations are reported through a witness vector, never repaired).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    MINKOWSKI_SIGNS,
    ThetaField,
    contract,
    lower_index,
    minkowski_dot,
)

_MINKOWSKI = tuple(
    tuple(MINKOWSKI_SIGNS[a] if a == b else 0 for b in range(4)) for a in range(4)
)


@dataclass(frozen=True)
class ExoticMetric:
    """Deformed metric components at a point; exactly symmetric.

    The builder fixes whether they are covariant or contravariant and
    whether the quadratic gradient terms are kept.
    """

    components: tuple

    def __getitem__(self, idx):
        a, b = idx
        return self.components[a][b]

    def as_rows(self) -> list:
        return [list(row) for row in self.components]


def _symmetric_components(entry) -> tuple:
    rows = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a, 4):
            val = entry(a, b)
            rows[a][b] = val
            rows[b][a] = val
    return tuple(tuple(r) for r in rows)


def metric_full(x: Sequence, theta: ThetaField) -> ExoticMetric:
    """Covariant deformed metric with the quadratic gradient term kept.

    ``g_ab = eta_ab + x_a d_b theta + x_b d_a theta + (x.x) d_a theta d_b theta``.
    """
    grad = theta.grad(x)
    x_low = lower_index(x)
    xx = minkowski_dot(x, x)
    comps = _symmetric_components(
        lambda a, b: _MINKOWSKI[a][b]
        + x_low[a] * grad[b]
        + x_low[b] * grad[a]
        + xx * grad[a] * grad[b]
    )
    return ExoticMetric(comps)


def metric_first_order(x: Sequence, theta: ThetaField) -> ExoticMetric:
    """Covariant deformed metric truncated at first order in the gradient."""
    grad = theta.grad(x)
    x_low = lower_index(x)
    comps = _symmetric_components(
        lambda a, b: _MINKOWSKI[a][b] + x_low[a] * grad[b] + x_low[b] * grad[a]
    )
    return ExoticMetric(comps)


def metric_inverse_first_order(x: Sequence, theta: ThetaField) -> ExoticMetric:
    """Contravariant inverse of the first-order metric, itself first order.

    ``g^ab = eta^ab - x^a d^b theta - x^b d^a theta``; contracting with the
    first-order metric deviates from the identity only at grade >= 2.
    """
    grad_up = tuple(MINKOWSKI_SIGNS[i] * g for i, g in enumerate(theta.grad(x)))
    comps = _symmetric_components(
        lambda a, b: _MINKOWSKI[a][b] - x[a] * grad_up[b] - x[b] * grad_up[a]
    )
    return ExoticMetric(comps)


def bilinear_eval(v: Sequence, w: Sequence, x: Sequence, theta: ThetaField):
    """Deformed bilinear form on two contravariant vectors.

    ``v.w + (x.v)(dtheta.w) + (x.w)(dtheta.v) + (x.x)(dtheta.v)(dtheta.w)``
    with ``a.b`` the flat product and ``dtheta.v = d_b theta v^b``.
    Symmetric in ``v, w``; equals ``v^T g_full w``.
    """
    grad = theta.grad(x)
    gv = contract(grad, v)
    gw = contract(grad, w)
    return (
        minkowski_dot(v, w)
        + minkowski_dot(x, v) * gw
        + minkowski_dot(x, w) * gv
        + minkowski_dot(x, x) * gv * gw
    )


def degeneracy_witness(v: Sequence, x: Sequence, theta: ThetaField) -> tuple:
    """Covariant witness ``w_n = v_n + x_n (dtheta.v)``.

    The deformed pairing of ``v`` against every vector vanishes iff the
    witness is the zero covector.
    """
    grad = theta.grad(x)
    gv = contract(grad, v)
    v_low = lower_index(v)
    x_low = lower_index(x)
    return tuple(v_low[n] + x_low[n] * gv for n in range(4))


def null_deviation(v: Sequence, x: Sequence, theta: ThetaField):
    """Quadratic form written as the flat square of the shifted vector.

    ``(v^m + x^m (dtheta.v)) (v_m + x_m (dtheta.v))``; identical to
    ``bilinear_eval(v, v, x, theta)`` as an algebraic identity.
    """
    grad = theta.grad(x)
    gv = contract(grad, v)
    shifted = tuple(v[m] + x[m] * gv for m in range(4))
    return minkowski_dot(shifted, shifted)


def interval_2d(dt, dx, t, x, theta_t, theta_x, c):
    """Two-dimensional deformed interval, linear in the theta derivatives.

    ``c^2 dt^2 { 1 + 2 t th_t - (u^2/c^2)(1 - 2 x th_x)
    - (2u/c)(t th_x c^2 + th_t x)/c }`` with ``u = dx/dt`` the displacement
    velocity.  Quadratic derivative terms are already dropped; the full
    quadratic interval is available through :func:`metric_full`.
    """
    u = dx / dt
    return (c * c * dt * dt) * (
        1
        + 2 * t * theta_t
        - (u * u / (c * c)) * (1 - 2 * x * theta_x)
        - (2 * u / c) * (t * theta_x * c * c + theta_t * x) / c
    )


def lightcone_velocity(t, x, theta_t, theta_x, c):
    """Disturbed light-cone velocities ``u+- = +-c - th_t(x -+ ct) - c th_x(ct -+ x)``."""
    u_plus = c - theta_t * (x - c * t) - c * theta_x * (c * t - x)
    u_minus = -c - theta_t * (x + c * t) - c * theta_x * (c * t + x)
    return u_plus, u_minus


def dual_coefficients(phi: Sequence, x: Sequence, theta: ThetaField) -> tuple:
    """Components of a covector in the plain basis after the dilatation.

    ``alpha_i = phi_i + (sum_k phi_k x^k) d_i theta``.  All sums are plain
    componentwise contractions; no metric enters.
    """
    grad = theta.grad(x)
    phix = contract(phi, x)
    return tuple(phi[i] + phix * grad[i] for i in range(len(phi)))


def dual_obstruction(phi: Sequence, x: Sequence, theta: ThetaField) -> bool:
    """True iff the dilatation annihilates the nonzero covector ``phi``.

    Detects the degenerate gradient configuration
    ``d_j theta = -phi_j / (sum_k phi_k x^k)`` excluded by the dual-basis
    construction.  Rejects ``phi = 0``.
    """
    if all(p == 0 for p in phi):
        raise ValueError("obstruction test requires a nonzero covector")
    return all(a == 0 for a in dual_coefficients(phi, x, theta))


def inner_product_dual(phi: Sequence, v: Sequence, x: Sequence, theta: ThetaField):
    """Deformed pairing ``phi(v) = sum phi_k v^k + (sum phi_i x^i)(sum d_j theta v^j)``.

    When ``phi`` and ``x`` are orthogonal (``sum phi_i x^i = 0``) the plain
    pairing is recovered, realizing the orthogonal decomposition of the
    dual space.
    """
    grad = theta.grad(x)
    return contract(phi, v) + contract(phi, x) * contract(grad, v)


def validity_ratio(x: Sequence, theta: ThetaField) -> float:
    """Diagnostic ``||x|| * ||dtheta||`` (Euclidean norms).

    The construction is a perturbation; values approaching 1 mean the
    first-order treatment is strained.  Reported, never enforced.
    """
    grad = theta.grad(x)
    nx = math.sqrt(sum(float(c) ** 2 for c in x))
    ng = math.sqrt(sum(float(g) ** 2 for g in grad))
    return nx * ng

"""Exotic exterior calculus: deformed basis, derivative, homotopy, field strength.

Forms live over coordinates ``0 .. dim-1`` with exact polynomial
coefficients (:class:`~exocalc.poly.MultiPoly`) stored on strictly
increasing index tuples; assignments through permuted tuples pick up the
permutation sign.  A form may be expressed in the plain basis ``dx^i`` or
in the deformed basis ``dtx^i = dx^i + x^i dtheta``; the deformation is
generated by a *linear* theta field, whose gradient terms always enter at
``eps`` grade >= 1 so that first-order statements are grade projections,
never truncations inside the operators.

Coefficients are immutable and shared between forms: wherever an
operation leaves a coefficient's value unchanged, the result stores the
operand's polynomial itself, not a copy.  :meth:`ExoticForm.insert` is
the one path that validates and sorts indices; operations whose keys are
canonical by construction fill the coefficient dict directly.

When ``lambda_active`` is set, coordinate 0 is the auxiliary homotopy
parameter: it is never deformed, never scanned by the dilatation term,
and the theta gradient is extended by a leading zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from .core import ThetaField
from .poly import MultiPoly, random_multipoly

PLAIN = "plain"
DEFORMED = "deformed"


def _canonical(idx: Sequence[int]):
    """Sort an index tuple, returning (tuple, sign); repeats give sign 0."""
    order = list(idx)
    sign = 1
    for i in range(1, len(order)):
        j = i
        while j > 0 and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(order, order[1:]):
        if a == b:
            return None, 0
    return tuple(order), sign


class ExoticForm:
    """Antisymmetric multi-indexed form with exact polynomial coefficients."""

    __slots__ = ("dim", "degree", "basis", "lambda_active", "trunc", "coeffs")

    def __init__(
        self,
        dim: int,
        degree: int,
        basis: str = PLAIN,
        lambda_active: bool = False,
        trunc: int = 3,
    ):
        if degree < 0:
            raise ValueError("negative form degree")
        self.dim = dim
        self.degree = degree
        self.basis = basis
        self.lambda_active = lambda_active
        self.trunc = trunc
        self.coeffs = {}

    # construction-time accumulation; forms are treated as immutable once built
    def insert(self, idx: Sequence[int], poly: MultiPoly):
        if len(idx) != self.degree:
            raise ValueError("index tuple length does not match degree")
        if self.degree > self.dim:
            raise ValueError("nonzero component on a form of degree above the dimension")
        for i in idx:
            if not 0 <= i < self.dim:
                raise ValueError(f"index {i} outside dimension {self.dim}")
        key, sign = _canonical(idx)
        if key is not None:
            self._accumulate(key, poly if sign > 0 else -poly)

    def _accumulate(self, key: tuple, poly: MultiPoly):
        cur = self.coeffs.get(key)
        new = poly if cur is None else cur + poly
        if new.is_zero():
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = new

    def component(self, idx: Sequence[int]) -> MultiPoly:
        key, sign = _canonical(idx)
        poly = self.coeffs.get(key)
        if poly is None:
            return MultiPoly.zero(self.dim, self.trunc)
        return poly if sign > 0 else -poly

    def _like(self, degree: int | None = None) -> "ExoticForm":
        return ExoticForm(
            self.dim,
            self.degree if degree is None else degree,
            self.basis,
            self.lambda_active,
            self.trunc,
        )

    def _compatible(self, other: "ExoticForm"):
        if (
            self.dim != other.dim
            or self.basis != other.basis
            or self.lambda_active != other.lambda_active
        ):
            raise ValueError("forms live on different spaces or bases")

    def __add__(self, other: "ExoticForm") -> "ExoticForm":
        self._compatible(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        out = _filled(self._like(), self.coeffs.items())
        for idx, poly in other.coeffs.items():
            out._accumulate(idx, poly)
        return out

    def __neg__(self) -> "ExoticForm":
        return _filled(self._like(), ((idx, -poly) for idx, poly in self.coeffs.items()))

    def __sub__(self, other: "ExoticForm") -> "ExoticForm":
        return self + (-other)

    def __mul__(self, scalar) -> "ExoticForm":
        return _filled(self._like(), ((idx, scalar * poly) for idx, poly in self.coeffs.items()))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, ExoticForm):
            return NotImplemented
        return (self - other).is_zero()

    def eps_grade(self):
        """Minimal ``eps`` grade over all components (``inf`` for zero)."""
        grade = float("inf")
        for poly in self.coeffs.values():
            grade = min(grade, poly.eps_grade())
        return grade

    def eps_component(self, k: int) -> "ExoticForm":
        return _filled(self._like(), ((i, p.eps_component(k)) for i, p in self.coeffs.items()))

    def eps_truncated(self, max_grade: int) -> "ExoticForm":
        return _filled(self._like(), ((i, p.eps_truncated(max_grade)) for i, p in self.coeffs.items()))

    def extend_with_lambda(self) -> "ExoticForm":
        """View over ``R x base``: indices and variables shift up by one."""
        if self.lambda_active:
            raise ValueError("form already carries the lambda coordinate")
        out = ExoticForm(self.dim + 1, self.degree, self.basis, True, self.trunc)
        shifted = ((tuple(i + 1 for i in idx), p.promote()) for idx, p in self.coeffs.items())
        return _filled(out, shifted)

    def __repr__(self):
        kind = "deformed" if self.basis == DEFORMED else "plain"
        return (
            f"ExoticForm(dim={self.dim}, degree={self.degree}, {kind}, "
            f"components={len(self.coeffs)})"
        )


def _filled(out: ExoticForm, items) -> ExoticForm:
    """``out`` holding ``items``, whose keys are canonical by construction.

    Zero coefficients are dropped and nothing else is checked; coefficients
    are stored as given, shared with the form they came from.
    """
    out.coeffs = {idx: poly for idx, poly in items if not poly.is_zero()}
    return out


def _grad_for(form: ExoticForm, theta: ThetaField) -> tuple:
    """Gradient as exact rationals, extended by a leading zero for lambda."""
    grad = tuple(Fraction(g) for g in theta.grad())
    base_dim = form.dim - 1 if form.lambda_active else form.dim
    if len(grad) != base_dim:
        raise ValueError(
            f"theta gradient has {len(grad)} components, expected {base_dim}"
        )
    return ((Fraction(0),) + grad) if form.lambda_active else grad


def _spatial_range(form: ExoticForm) -> range:
    return range(1, form.dim) if form.lambda_active else range(form.dim)


def wedge(a: ExoticForm, b: ExoticForm) -> ExoticForm:
    """Graded-antisymmetric product; ``a ^ b = (-1)^{kl} b ^ a``."""
    a._compatible(b)
    out = ExoticForm(a.dim, a.degree + b.degree, a.basis, a.lambda_active, min(a.trunc, b.trunc))
    if out.degree > out.dim:
        return out
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            out.insert(ia + ib, ca * cb)
    return out


def exterior_d(form: ExoticForm) -> ExoticForm:
    """Ordinary exterior derivative (trivial-topology limit of the deformed one)."""
    if form.basis != PLAIN:
        raise ValueError("exterior derivative expects plain-basis coefficients")
    out = form._like(degree=form.degree + 1)
    if out.degree > out.dim:
        return out
    for idx, poly in form.coeffs.items():
        for n in range(form.dim):
            dn = poly.diff(n)
            if not dn.is_zero():
                out.insert((n,) + idx, dn)
    return out


def exotic_d(form: ExoticForm, theta: ThetaField) -> ExoticForm:
    """Deformed exterior derivative on plain-basis coefficients.

    Coefficient rule per direction ``n``:
    ``D_n[c] = d_n c + eps * g_n * sum_m x^m d_m c`` (the dilatation scan
    runs over the non-lambda coordinates), the result wedged in front.
    All ``eps`` grades generated by the rule are kept.
    """
    if form.basis != PLAIN:
        raise ValueError("deformed derivative expects plain-basis coefficients")
    g = _grad_for(form, theta)
    out = form._like(degree=form.degree + 1)
    if out.degree > out.dim:
        return out
    for idx, poly in form.coeffs.items():
        scan = None
        for m in _spatial_range(form):
            dm = poly.diff(m)
            if dm.is_zero():
                continue
            term = MultiPoly.variable(m, poly.nvars, poly.trunc) * dm
            scan = term if scan is None else scan + term
        for n in range(form.dim):
            dn = poly.diff(n)
            if g[n] != 0 and scan is not None:
                dn = dn + (g[n] * scan).scale_eps(1)
            if not dn.is_zero():
                out.insert((n,) + idx, dn)
    return out


def deformed_to_plain(form: ExoticForm, theta: ThetaField) -> ExoticForm:
    """Expand deformed-basis components into the plain basis, all grades.

    Each slot contributes ``dx^i + eps x^i sum_j g_j dx^j`` (the lambda
    slot, when present, stays undeformed); the full multilinear expansion
    is antisymmetrized into canonical storage.
    """
    if form.basis != DEFORMED:
        raise ValueError("expected deformed-basis input")
    g = _grad_for(form, theta)
    out = ExoticForm(form.dim, form.degree, PLAIN, form.lambda_active, form.trunc)
    for idx, poly in form.coeffs.items():
        options = []
        for slot in idx:
            branches = [(slot, None)]
            if not (form.lambda_active and slot == 0):
                branches.extend(
                    (j, slot) for j in range(form.dim) if g[j] != 0
                )
            options.append(branches)
        for combo in product(*options):
            new_idx = tuple(choice[0] for choice in combo)
            factor = poly
            subs = 0
            for j, slot in combo:
                if slot is None:
                    continue
                subs += 1
                factor = factor * (
                    g[j] * MultiPoly.variable(slot, poly.nvars, poly.trunc)
                )
            if subs:
                factor = factor.scale_eps(subs)
            if not factor.is_zero():
                out.insert(new_idx, factor)
    return out


def d_squared_obstruction(form: ExoticForm, theta: ThetaField) -> ExoticForm:
    """The nonvanishing square of the deformed derivative, built directly.

    ``eps g_n d_m c dx^m ^ dx^n ^ dx^I`` summed over the components of
    ``form``; this is what ``d(d(form))`` collapses to for linear theta.
    """
    g = _grad_for(form, theta)
    rhs = form._like(degree=form.degree + 2)
    if rhs.degree > rhs.dim:
        return rhs
    # both slots scan the non-lambda directions: mixed lambda terms cancel
    # in the antisymmetrization of the squared derivative
    for idx, poly in form.coeffs.items():
        for n in _spatial_range(form):
            if g[n] == 0:
                continue
            for m in _spatial_range(form):
                dm = poly.diff(m)
                if dm.is_zero():
                    continue
                rhs.insert((m, n) + idx, (g[n] * dm).scale_eps(1))
    return rhs


def d_squared_check(form: ExoticForm, theta: ThetaField, d_fn=exotic_d):
    """Residual of the squared deformed derivative against its obstruction form.

    Returns ``(residual, dd)`` with ``dd = d(d(form))`` and ``residual = dd``
    minus :func:`d_squared_obstruction`; for linear theta the residual
    vanishes identically at every grade.  ``dd`` is returned so a caller
    can apply ``d`` once more without recomputing it.  Like
    every identity check here, ``d_fn`` is the deformed derivative under
    test (the dense oracle route passes its own).
    """
    dd = d_fn(d_fn(form, theta), theta)
    return dd - d_squared_obstruction(form, theta), dd


def leibniz_check(a: ExoticForm, b: ExoticForm, theta: ThetaField, d_fn=exotic_d) -> ExoticForm:
    """``d(a ^ b) - d(a) ^ b - (-1)^deg(a) a ^ d(b)``; exactly zero."""
    lhs = d_fn(wedge(a, b), theta)
    rhs = wedge(d_fn(a, theta), b)
    signed = wedge(a, d_fn(b, theta))
    if a.degree % 2:
        signed = -signed
    return lhs - rhs - signed


def homotopy_H(form: ExoticForm) -> ExoticForm:
    """Lambda-integration operator on forms over ``R x base``.

    Components without the lambda slot map to zero; components
    ``dlambda ^ dx^I`` map to the exact unit-interval integral of their
    coefficient on ``dx^I`` over the base space.
    """
    if not form.lambda_active:
        raise ValueError("homotopy operator needs the lambda coordinate")
    if form.degree == 0:
        return ExoticForm(form.dim - 1, 0, form.basis, False, form.trunc)
    out = ExoticForm(form.dim - 1, form.degree - 1, form.basis, False, form.trunc)
    return _filled(out, (
        (tuple(i - 1 for i in idx[1:]), poly.integrate_unit(0).drop_leading_var())
        for idx, poly in form.coeffs.items()
        if idx[0] == 0
    ))


def pullback_at(form: ExoticForm, value) -> ExoticForm:
    """Pullback along the inclusion at fixed lambda: drop dlambda, substitute."""
    if not form.lambda_active:
        raise ValueError("pullback needs the lambda coordinate")
    # no degree guard: a key that skips the lambda slot 0 has at most dim - 1 indices
    out = ExoticForm(form.dim - 1, form.degree, form.basis, False, form.trunc)
    return _filled(out, (
        (tuple(i - 1 for i in idx), poly.subst_const(0, value).drop_leading_var())
        for idx, poly in form.coeffs.items()
        if 0 not in idx
    ))


def homotopy_lemma_check(form: ExoticForm, theta: ThetaField, d_fn=exotic_d) -> ExoticForm:
    """Residual of ``H d w + d H w = w|_1 - w|_0`` for a form over ``R x base``."""
    h_d = homotopy_H(d_fn(form, theta))
    d_h = d_fn(homotopy_H(form), theta)
    boundary = pullback_at(form, 1) - pullback_at(form, 0)
    return h_d + d_h - boundary


def field_strength(a_components: Sequence[MultiPoly], theta: ThetaField) -> ExoticForm:
    """Curvature 2-form of a deformed connection built from covariant components.

    ``(1/2)(d_m A_n - d_n A_m) dx^m ^ dx^n`` plus the gradient terms
    ``eps [ (A_m + x^a d_m A_a) g_n + (x^a d_a A_n) g_m ] dx^m ^ dx^n``;
    agrees with the grade <= 1 part of the deformed derivative of the
    dilated connection 1-form.  A constant connection with a nonzero
    gradient already yields a nonzero result: gauge invariance is lost.
    """
    n = len(a_components)
    trunc = a_components[0].trunc
    out = ExoticForm(n, 2, PLAIN, False, trunc)
    g = _grad_for(out, theta)
    xs = [MultiPoly.variable(i, n, trunc) for i in range(n)]
    for mu in range(n):
        for nu in range(n):
            if mu == nu:
                continue
            f_part = Fraction(1, 2) * (
                a_components[nu].diff(mu) - a_components[mu].diff(nu)
            )
            dil = a_components[mu]
            for al in range(n):
                dil = dil + xs[al] * a_components[al].diff(mu)
            swirl = MultiPoly.zero(n, trunc)
            for al in range(n):
                swirl = swirl + xs[al] * a_components[nu].diff(al)
            theta_part = (g[nu] * dil + g[mu] * swirl).scale_eps(1)
            out.insert((mu, nu), f_part + theta_part)
    return out


def dilated_connection(a_components: Sequence[MultiPoly], theta: ThetaField) -> ExoticForm:
    """The 1-form ``(A_m + eps g_m sum_a x^a A_a) dx^m`` over the plain basis."""
    n = len(a_components)
    trunc = a_components[0].trunc
    out = ExoticForm(n, 1, PLAIN, False, trunc)
    g = _grad_for(out, theta)
    xa = MultiPoly.zero(n, trunc)
    for al in range(n):
        xa = xa + MultiPoly.variable(al, n, trunc) * a_components[al]
    for mu in range(n):
        out.insert((mu,), a_components[mu] + (g[mu] * xa).scale_eps(1))
    return out


def random_form(
    rng,
    dim: int,
    degree: int,
    max_poly_degree: int = 3,
    trunc: int = 3,
    basis: str = PLAIN,
    lambda_active: bool = False,
) -> ExoticForm:
    """Random form with small rational polynomial coefficients (test/fixture input)."""
    from itertools import combinations

    out = ExoticForm(dim, degree, basis, lambda_active, trunc)
    for idx in combinations(range(dim), degree):
        if rng.random() < 0.25 and degree > 0:
            continue
        out.insert(idx, random_multipoly(rng, dim, max_poly_degree, trunc))
    return out


def random_linear_theta(rng, dim: int) -> ThetaField:
    """Random linear theta field with single-digit rational gradient."""
    return ThetaField.linear(
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim))
    )

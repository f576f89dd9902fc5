"""Exact multivariate polynomials over the rationals, graded in ``eps``.

Coefficient ring for the exotic exterior calculus: every appendix-style
identity is checked with zero tolerance, and "first order" claims become
statements about the minimal ``eps`` power present.  Every polynomial
drops the ``eps`` powers above :data:`exocalc.core.EPS_ORDER`.

Storage is the content/primitive-part form: ``terms`` maps a packed
monomial key to a nonzero ``int`` numerator, and ``den`` is one positive
``int`` denominator shared by every term, normalised so that
``gcd(den, *numerators) == 1`` (zero is ``{}`` over 1).  Equal
polynomials therefore have equal ``terms`` and ``den``.

A key packs the ``eps`` power and every exponent into fixed-width bit
fields: ``eps`` in the top field, then ``x0``, ``x1``, ... down to the
last variable in the lowest.  A monomial product is one integer add, eps
truncation one compare against ``(EPS_ORDER + 1) << shift``, the ``eps``
grade ``min(terms) >> shift``, a derivative one subtraction, and keys
sort like ``(eps, exponents)`` tuples.  The top bit of each variable field
is a guard: stored exponents stay below ``EXP_LIMIT``, so the sum of two
never carries into a neighbouring field, and a product that reaches
``EXP_LIMIT`` in any variable raises ``OverflowError``.

Coefficients are read as ``Fraction`` through :meth:`MultiPoly.coefficient`;
scalars (``int`` or ``Fraction``) combine with polynomials on either side.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_

from .core import EPS_ORDER

FIELD_BITS = 16
EXP_LIMIT = 1 << (FIELD_BITS - 1)  # exclusive bound on a stored exponent
_FIELD_MASK = (1 << FIELD_BITS) - 1
# random_multipoly draws its coefficients' denominators from 1 .. _MAX_DEN and
# keeps their numerators over the lcm of that range
_MAX_DEN = 5
_DRAW_DEN = math.lcm(*range(1, _MAX_DEN + 1))


def _guard(nvars: int) -> int:
    """The top bit of every variable field."""
    return ((1 << FIELD_BITS * nvars) - 1) // _FIELD_MASK << (FIELD_BITS - 1)


def _offset(var: int, nvars: int) -> int:
    if not 0 <= var < nvars:
        raise IndexError(f"variable {var} outside 0..{nvars - 1}")
    return FIELD_BITS * (nvars - 1 - var)


def _pack(eps: int, mono, nvars: int) -> int:
    if len(mono) != nvars:
        raise ValueError("exponent tuple length mismatch")
    if eps < 0 or min(mono, default=0) < 0:
        raise ValueError("negative eps power or exponent")
    if max(mono, default=0) >= EXP_LIMIT:
        raise OverflowError(f"exponent reaches the field limit {EXP_LIMIT}")
    key = eps
    for k in mono:
        key = key << FIELD_BITS | k
    return key


def _unpack(key: int, nvars: int) -> tuple:
    mono = []
    for _ in range(nvars):
        mono.append(key & _FIELD_MASK)
        key >>= FIELD_BITS
    return key, tuple(reversed(mono))


def _ratio(value):
    """``(numerator, denominator)`` of an ``int`` or ``Fraction`` scalar, else None."""
    if isinstance(value, int):
        return int(value), 1  # a bool becomes a plain int
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return None


def _poly(nvars: int, terms: dict, den: int) -> "MultiPoly":
    """A polynomial from nonzero numerators over ``den > 0``, content removed."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {k: v // g for k, v in terms.items()}
            den //= g
    out = object.__new__(MultiPoly)
    out.nvars = nvars
    out.terms = terms
    out.den = den
    return out


class MultiPoly:
    __slots__ = ("nvars", "terms", "den")

    def __init__(self, nvars: int, terms: dict | None = None):
        """Polynomial from ``{(eps_power, exponent_tuple): coefficient}``.

        Coefficients are anything ``Fraction`` accepts; zero coefficients and
        grades above ``EPS_ORDER`` are dropped.
        """
        kept = {}
        for (eps, mono), coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if eps <= EPS_ORDER and coeff:
                kept[_pack(eps, mono, nvars)] = coeff
        self.nvars = nvars
        self.den = math.lcm(*(c.denominator for c in kept.values()))  # 1 when empty
        self.terms = {k: c.numerator * (self.den // c.denominator) for k, c in kept.items()}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, value, nvars: int) -> "MultiPoly":
        value = Fraction(value)
        terms = {0: value.numerator} if value else {}
        return _poly(nvars, terms, value.denominator)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        return _poly(nvars, {1 << _offset(index, nvars): 1}, 1)

    def coefficient(self, eps: int, mono) -> Fraction:
        """Exact coefficient of ``eps**eps * x**mono`` (zero when absent)."""
        return Fraction(self.terms.get(_pack(eps, mono, self.nvars), 0), self.den)

    # -- ring operations ----------------------------------------------
    def _add(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """``self + sign * other`` for ``sign`` in ``(1, -1)``."""
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        da, db = self.den, other.den
        if da == db:
            out = dict(self.terms)
            scale = sign
        else:
            g = math.gcd(da, db)
            up = db // g
            out = {k: v * up for k, v in self.terms.items()}
            scale = sign * (da // g)
            da *= up
        get = out.get
        for k, v in other.terms.items():
            n = get(k, 0) + v * scale
            if n:
                out[k] = n
            else:
                del out[k]
        return _poly(self.nvars, out, da)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.nvars, {k: -v for k, v in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._add(self, -1)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = _ratio(other)
            return NotImplemented if scalar is None else self._scaled(*scalar)
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        limit = (EPS_ORDER + 1) << FIELD_BITS * self.nvars
        outer, inner = self.terms, other.terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        out = {}
        get = out.get
        for k1, c1 in outer.items():
            for k2, c2 in inner.items():
                k = k1 + k2
                if k < limit:
                    out[k] = get(k, 0) + c1 * c2
        out = {k: v for k, v in out.items() if v}
        if out and reduce(or_, out) & _guard(self.nvars):
            raise OverflowError(f"product exponent reaches the field limit {EXP_LIMIT}")
        return _poly(self.nvars, out, self.den * other.den)

    __rmul__ = __mul__

    def _scaled(self, num: int, den: int) -> "MultiPoly":
        """``self * num / den`` for a reduced fraction with ``den > 0``."""
        if not num:
            return MultiPoly(self.nvars)
        return _poly(self.nvars, {k: v * num for k, v in self.terms.items()}, self.den * den)

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        scalar = _ratio(other)
        if scalar is None:
            return None
        num, den = scalar
        return _poly(self.nvars, {0: num} if num else {}, den)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading -------------------------------------------------------
    def scale_eps(self, k: int = 1) -> "MultiPoly":
        """Multiply by ``eps**k`` (grades above ``EPS_ORDER`` drop out)."""
        if k < 0:
            raise ValueError("negative eps power")
        shift = FIELD_BITS * self.nvars
        step, limit = k << shift, (EPS_ORDER + 1) << shift
        out = {key + step: v for key, v in self.terms.items() if key + step < limit}
        return _poly(self.nvars, out, self.den)

    def eps_grade(self):
        """Minimal ``eps`` power present; ``inf`` for the zero polynomial."""
        if not self.terms:
            return math.inf
        return min(self.terms) >> FIELD_BITS * self.nvars

    def eps_component(self, k: int) -> "MultiPoly":
        """Coefficient polynomial of ``eps**k`` (returned at grade 0)."""
        shift = FIELD_BITS * self.nvars
        lo, hi = k << shift, (k + 1) << shift
        out = {key - lo: v for key, v in self.terms.items() if lo <= key < hi}
        return _poly(self.nvars, out, self.den)

    def eps_truncated(self, max_grade: int) -> "MultiPoly":
        limit = (max_grade + 1) << FIELD_BITS * self.nvars
        out = {key: v for key, v in self.terms.items() if key < limit}
        return _poly(self.nvars, out, self.den)

    # -- calculus -------------------------------------------------------
    def diff(self, var: int) -> "MultiPoly":
        off = _offset(var, self.nvars)
        one = 1 << off
        out = {}
        for key, v in self.terms.items():
            k = key >> off & _FIELD_MASK
            if k:
                out[key - one] = v * k
        return _poly(self.nvars, out, self.den)

    def euler(self, variables) -> "MultiPoly":
        """Euler's operator ``sum_{v in variables} x^v d_v``: one pass that
        multiplies each term by its total degree in ``variables``."""
        offs = [_offset(var, self.nvars) for var in variables]
        out = {}
        for key, v in self.terms.items():
            k = sum([key >> off & _FIELD_MASK for off in offs])
            if k:
                out[key] = v * k
        return _poly(self.nvars, out, self.den)

    def integrate_unit(self, var: int) -> "MultiPoly":
        """Exact definite integral over ``var`` from 0 to 1."""
        off = _offset(var, self.nvars)
        powers = [(key, v, key >> off & _FIELD_MASK) for key, v in self.terms.items()]
        den = math.lcm(*(k + 1 for _, _, k in powers))
        return self._collect(((key - (k << off), v * (den // (k + 1))) for key, v, k in powers), den)

    def subst_const(self, var: int, value) -> "MultiPoly":
        """Substitute an exact constant for one variable."""
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        off = _offset(var, self.nvars)
        powers = [(key, v, key >> off & _FIELD_MASK) for key, v in self.terms.items()]
        top = max((k for _, _, k in powers), default=0)
        return self._collect(
            ((key - (k << off), v * p**k * q ** (top - k)) for key, v, k in powers), q**top
        )

    def _collect(self, pairs, den: int) -> "MultiPoly":
        """Sum ``(key, numerator)`` pairs over ``self.den * den``."""
        out = {}
        for key, v in pairs:
            out[key] = out.get(key, 0) + v
        out = {k: v for k, v in out.items() if v}
        return _poly(self.nvars, out, self.den * den)

    # -- variable bookkeeping (lambda extension) ------------------------
    def promote(self) -> "MultiPoly":
        """Reinterpret over one extra leading variable (exponent 0)."""
        shift = FIELD_BITS * self.nvars
        low = (1 << shift) - 1
        out = {(key >> shift) << (shift + FIELD_BITS) | key & low: v for key, v in self.terms.items()}
        return _poly(self.nvars + 1, out, self.den)

    def drop_leading_var(self) -> "MultiPoly":
        """Remove the leading variable; it must not occur."""
        shift = FIELD_BITS * (self.nvars - 1)
        lead, low = _FIELD_MASK << shift, (1 << shift) - 1
        if any(key & lead for key in self.terms):
            raise ValueError("leading variable still present")
        out = {(key >> shift + FIELD_BITS) << shift | key & low: v for key, v in self.terms.items()}
        return _poly(self.nvars - 1, out, self.den)

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for key in sorted(self.terms):
            e, mono = _unpack(key, self.nvars)
            coeff = Fraction(self.terms[key], self.den)
            mono_s = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}"
                for i, k in enumerate(mono)
                if k
            )
            eps_s = f"eps^{e}" if e > 1 else ("eps" if e == 1 else "")
            parts = [str(coeff)] + ([eps_s] if eps_s else []) + ([mono_s] if mono_s else [])
            bits.append("*".join(parts))
        return "MultiPoly(" + " + ".join(bits) + ")"


def random_multipoly(rng, nvars: int, degree: int) -> MultiPoly:
    """Small random polynomial with single-digit rational coefficients.

    Four terms, each the product of ``rng.randint(0, degree)`` variables
    drawn with ``rng.randrange(nvars)``, with coefficient
    ``rng.randint(-9, 9) / rng.randint(1, 5)``.  Keys are summed from the
    drawn variables and numerators are kept over the lcm of the denominator
    range, so no ``Fraction`` is built.  As in the constructor, a drawn
    exponent that reaches ``EXP_LIMIT`` raises ``OverflowError`` unless its
    coefficient sums to zero.
    """
    ones = [1 << _offset(var, nvars) for var in range(nvars)]
    terms = {}
    for _ in range(4):
        count = rng.randint(0, degree)
        if count < EXP_LIMIT:  # no exponent reaches a guard bit
            key = 0
            for _ in range(count):
                key += ones[rng.randrange(nvars)]
        else:  # count exponents, as the constructor does; no key above has this total degree
            mono = [0] * nvars
            for _ in range(count):
                mono[rng.randrange(nvars)] += 1
            key = tuple(mono)
        terms[key] = terms.get(key, 0) + rng.randint(-9, 9) * (_DRAW_DEN // rng.randint(1, _MAX_DEN))
    terms = {k if type(k) is int else _pack(0, k, nvars): v for k, v in terms.items() if v}
    return _poly(nvars, terms, _DRAW_DEN)

"""Exact multivariate polynomials over the rationals, graded in ``eps``.

Coefficient ring for the exotic exterior calculus: every appendix-style
identity is checked with zero tolerance, and "first order" claims become
statements about the minimal ``eps`` power present.  Terms are stored
sparsely as ``(eps_power, exponent_tuple) -> Fraction`` with zero
coefficients absent (canonical form); products truncate ``eps`` powers
beyond the grading order.
"""

from __future__ import annotations

import math
from fractions import Fraction


class MultiPoly:
    __slots__ = ("nvars", "trunc", "terms")

    def __init__(self, nvars: int, trunc: int = 3, terms: dict | None = None):
        self.nvars = nvars
        self.trunc = trunc
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                self._accumulate(key, Fraction(coeff))

    def _accumulate(self, key, coeff: Fraction):
        eps, mono = key
        if eps > self.trunc or coeff == 0:
            return
        if len(mono) != self.nvars:
            raise ValueError("exponent tuple length mismatch")
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int, trunc: int = 3) -> "MultiPoly":
        return cls(nvars, trunc)

    @classmethod
    def constant(cls, value, nvars: int, trunc: int = 3) -> "MultiPoly":
        mono = (0,) * nvars
        return cls(nvars, trunc, {(0, mono): Fraction(value)})

    @classmethod
    def variable(cls, index: int, nvars: int, trunc: int = 3) -> "MultiPoly":
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, trunc, {(0, mono): Fraction(1)})

    def _new(self, terms: dict) -> "MultiPoly":
        out = MultiPoly(self.nvars, self.trunc)
        for key, coeff in terms.items():
            out._accumulate(key, coeff)
        return out

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = MultiPoly(self.nvars, min(self.trunc, other.trunc))
        for key, coeff in self.terms.items():
            out._accumulate(key, coeff)
        for key, coeff in other.terms.items():
            out._accumulate(key, coeff)
        return out

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = MultiPoly(self.nvars, min(self.trunc, other.trunc))
        for (e1, m1), c1 in self.terms.items():
            for (e2, m2), c2 in other.terms.items():
                if e1 + e2 > out.trunc:
                    continue
                mono = tuple(a + b for a, b in zip(m1, m2))
                out._accumulate((e1 + e2, mono), c1 * c2)
        return out

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other, self.nvars, self.trunc)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- grading -------------------------------------------------------
    def scale_eps(self, k: int = 1) -> "MultiPoly":
        """Multiply by ``eps**k`` (grades above the truncation drop out)."""
        return self._new({(e + k, m): c for (e, m), c in self.terms.items() if e + k <= self.trunc})

    def eps_grade(self):
        """Minimal ``eps`` power present; ``inf`` for the zero polynomial."""
        if not self.terms:
            return math.inf
        return min(e for e, _ in self.terms)

    def eps_component(self, k: int) -> "MultiPoly":
        """Coefficient polynomial of ``eps**k`` (returned at grade 0)."""
        return self._new({(0, m): c for (e, m), c in self.terms.items() if e == k})

    def eps_truncated(self, max_grade: int) -> "MultiPoly":
        return self._new({(e, m): c for (e, m), c in self.terms.items() if e <= max_grade})

    # -- calculus -------------------------------------------------------
    def diff(self, var: int) -> "MultiPoly":
        out = {}
        for (e, mono), coeff in self.terms.items():
            k = mono[var]
            if k == 0:
                continue
            new_mono = tuple(m - 1 if i == var else m for i, m in enumerate(mono))
            key = (e, new_mono)
            out[key] = out.get(key, Fraction(0)) + coeff * k
        return self._new(out)

    def integrate_unit(self, var: int) -> "MultiPoly":
        """Exact definite integral over ``var`` from 0 to 1."""
        out = {}
        for (e, mono), coeff in self.terms.items():
            k = mono[var]
            new_mono = tuple(0 if i == var else m for i, m in enumerate(mono))
            key = (e, new_mono)
            out[key] = out.get(key, Fraction(0)) + coeff / (k + 1)
        return self._new(out)

    def subst_const(self, var: int, value) -> "MultiPoly":
        """Substitute an exact constant for one variable."""
        value = Fraction(value)
        out = {}
        for (e, mono), coeff in self.terms.items():
            k = mono[var]
            new_mono = tuple(0 if i == var else m for i, m in enumerate(mono))
            key = (e, new_mono)
            out[key] = out.get(key, Fraction(0)) + coeff * value**k
        return self._new(out)

    # -- variable bookkeeping (lambda extension) ------------------------
    def promote(self) -> "MultiPoly":
        """Reinterpret over one extra leading variable (exponent 0)."""
        out = MultiPoly(self.nvars + 1, self.trunc)
        for (e, mono), coeff in self.terms.items():
            out._accumulate((e, (0,) + mono), coeff)
        return out

    def drop_leading_var(self) -> "MultiPoly":
        """Remove the leading variable; it must not occur."""
        out = MultiPoly(self.nvars - 1, self.trunc)
        for (e, mono), coeff in self.terms.items():
            if mono[0] != 0:
                raise ValueError("leading variable still present")
            out._accumulate((e, mono[1:]), coeff)
        return out

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for (e, mono), coeff in sorted(self.terms.items()):
            mono_s = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}"
                for i, k in enumerate(mono)
                if k
            )
            eps_s = f"eps^{e}" if e > 1 else ("eps" if e == 1 else "")
            parts = [str(coeff)] + ([eps_s] if eps_s else []) + ([mono_s] if mono_s else [])
            bits.append("*".join(parts))
        return "MultiPoly(" + " + ".join(bits) + ")"


def random_multipoly(rng, nvars: int, degree: int, trunc: int = 3, n_terms: int = 4) -> MultiPoly:
    """Small random polynomial with single-digit rational coefficients."""
    poly = MultiPoly.zero(nvars, trunc)
    for _ in range(n_terms):
        mono = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(nvars)] += 1
        if sum(mono) > degree:
            continue
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        poly = poly + MultiPoly(nvars, trunc, {(0, tuple(mono)): coeff})
    return poly

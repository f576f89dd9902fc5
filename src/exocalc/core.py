"""Foundational scalar, series and vector types.

Everything downstream shares the conventions fixed here:

* metric signature ``(+, -, -, -)``; indices are raised and lowered with
  the flat Minkowski metric only,
* the topological scalar ``theta`` enters formulas only as the plain tuple
  of its covariant gradient components ``d_mu theta`` at the point in
  question, so a nonlinear ``theta`` passes its gradient at that point,
* "first order in the theta gradient" statements are made exact by
  substituting ``theta -> eps * theta`` and computing in a truncated
  formal power series in the grading parameter ``eps`` (:class:`EpsSeries`),
* every ``eps``-graded ring (:class:`EpsSeries` here, the polynomials of
  :mod:`exocalc.poly`) drops the grades above one order, :data:`EPS_ORDER`.

Scalars are deliberately generic: the same formulas run over floats,
:class:`fractions.Fraction`, :class:`RationalComplex` and
:class:`EpsSeries`, and each mixes with the others (a float meeting a
:class:`RationalComplex` gives a ``complex``), so algebraic identities can
be checked with zero tolerance while simulations use ordinary doubles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

MINKOWSKI_SIGNS = (1, -1, -1, -1)

#: the highest ``eps`` grade any graded value keeps
EPS_ORDER = 3


# raised by dispersion and pde; defined here so the CLI maps them to exit codes
# 3 and 4 without importing numpy
class DegenerateParameterError(ValueError):
    """The parameters admit no finite result, e.g. the gradient-aligned constraint
    cannot be formed or finite inputs overflow in float arithmetic."""


class InstabilityError(RuntimeError):
    """The discrete field amplitude blew past the abort threshold."""

    def __init__(self, step: int, time: float, amplitude: float):
        super().__init__(
            f"instability detected at step {step} (t = {time:.6g}): "
            f"max |phi| = {amplitude:.3e}"
        )
        self.step = step
        self.time = time
        self.amplitude = amplitude


def lower_index(v: Sequence) -> tuple:
    """Lower a contravariant 4-vector: ``(v0, v1, v2, v3) -> (v0, -v1, -v2, -v3)``."""
    return (v[0], -v[1], -v[2], -v[3])


def minkowski_dot(u: Sequence, v: Sequence):
    """Flat inner product ``u^0 v^0 - u^1 v^1 - u^2 v^2 - u^3 v^3`` of contravariant vectors."""
    return u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]


def contract(cov: Sequence, vec: Sequence):
    """Plain index contraction ``sum_k cov_k vec^k`` (no metric involved)."""
    total = cov[0] * vec[0]
    for a, b in zip(cov[1:], vec[1:]):
        total = total + a * b
    return total


class EpsSeries:
    """Formal power series in the grading parameter ``eps``, truncated at :data:`EPS_ORDER`.

    ``coeffs[k]`` is the coefficient of ``eps**k`` for ``k <= EPS_ORDER``;
    coefficients may be Fractions (exact mode), floats, complex, or
    :class:`RationalComplex`.  Products keep
    ``(a*b).coeffs[k] = sum_{i+j=k} a_i b_j`` for ``k <= EPS_ORDER``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = list(coeffs)[: EPS_ORDER + 1]
        self.coeffs = tuple(coeffs + [0] * (EPS_ORDER + 1 - len(coeffs)))

    @classmethod
    def constant(cls, value) -> "EpsSeries":
        return cls([value])

    @classmethod
    def eps(cls, value=1) -> "EpsSeries":
        """The grade-1 element ``value * eps``."""
        return cls([0, value])

    def grade(self):
        """Smallest k with a nonzero coefficient; ``math.inf`` for the zero series."""
        return next((k for k, c in enumerate(self.coeffs) if c != 0), math.inf)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other) -> "EpsSeries | None":
        if isinstance(other, EpsSeries):
            return other
        if isinstance(other, (int, float, complex, Fraction, RationalComplex)):
            return EpsSeries.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EpsSeries([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return EpsSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [0] * (EPS_ORDER + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs[: EPS_ORDER + 1 - i]):
                if b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return EpsSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            return EpsSeries([c / other for c in self.coeffs])
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = EpsSeries.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"EpsSeries({list(self.coeffs)!r})"


class RationalComplex:
    """Complex number with exact rational real and imaginary parts.

    The gamma-matrix layer needs entries in {0, +-1, +-i} multiplied by
    rationals without any floating-point loss; ``fractions.Fraction``
    alone cannot carry the imaginary unit.  ``+``, ``-`` and ``*`` with a
    ``float`` or ``complex`` on either side return ``complex(self) op other``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def __add__(self, other):
        o = _as_rational_complex(other)
        if o is None:
            return complex(self) + other if isinstance(other, (float, complex)) else NotImplemented
        return RationalComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __sub__(self, other):
        o = _as_rational_complex(other)
        if o is None:
            return complex(self) - other if isinstance(other, (float, complex)) else NotImplemented
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_rational_complex(other)
        if o is None:
            return other - complex(self) if isinstance(other, (float, complex)) else NotImplemented
        return o - self

    def __mul__(self, other):
        o = _as_rational_complex(other)
        if o is None:
            return complex(self) * other if isinstance(other, (float, complex)) else NotImplemented
        return RationalComplex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalComplex(self.re / other, self.im / other)
        return NotImplemented

    def __eq__(self, other):
        o = _as_rational_complex(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"RationalComplex({self.re}, {self.im})"


def _as_rational_complex(value):
    if isinstance(value, RationalComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalComplex(value, 0)
    return None


#: exact imaginary unit for rational-mode computations
QI = RationalComplex(0, 1)


def eps_grade(value):
    """Grade of a scalar: series grade, ``inf`` for exact zero, 0 otherwise."""
    if isinstance(value, EpsSeries):
        return value.grade()
    return math.inf if value == 0 else 0

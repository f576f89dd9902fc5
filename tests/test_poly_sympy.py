"""Differential test of the exact ring against ``sympy.Poly`` over ``QQ``.

sympy shares no code with :mod:`exocalc.poly`, so it is the ring's own
oracle.  Results are read back through ``repr`` (a public, byte-stable
format), parsed by sympy and compared as polynomials in ``eps, x0, ...``;
``eps`` grades above ``EPS_ORDER`` are dropped on the sympy side exactly
as the ring drops them.
"""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from exocalc.core import EPS_ORDER
from exocalc.poly import MultiPoly

EPS = sympy.Symbol("eps")
XS = sympy.symbols("x0:5")

coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))  # zero included
scalars = st.one_of(st.integers(-5, 5), coeffs)


def gens(nvars):
    return (EPS, *XS[:nvars])


def from_terms(terms, nvars):
    """sympy polynomial in ``eps, x0 .. x{nvars-1}`` from ``{exponents: coeff}``."""
    return sympy.Poly.from_dict(terms or {(0,) * (nvars + 1): 0}, gens(nvars), domain=sympy.QQ)


def truncated(poly, order=EPS_ORDER):
    keep = {m: c for m, c in poly.as_dict().items() if m[0] <= order}
    return from_terms(keep, len(poly.gens) - 1)


def as_sympy(p: MultiPoly):
    """The ring's polynomial as read back from its ``repr``."""
    text = repr(p)[len("MultiPoly("):-1]
    names = {str(s): s for s in gens(p.nvars)}
    expr = sympy.sympify(text.replace("^", "**"), locals=names)
    return sympy.Poly(expr, *gens(p.nvars), domain=sympy.QQ)


def monomial(key, nvars):
    eps, mono = key
    return EPS**eps * sympy.Mul(*(x**k for x, k in zip(XS[:nvars], mono)))


@st.composite
def sparse(draw, nvars):
    """A ring polynomial and its sympy twin, built from sparse random terms.

    The constructor sees zero coefficients and grades above ``EPS_ORDER``;
    the added single terms often cancel a constructor term exactly.
    """
    key = st.tuples(st.integers(0, EPS_ORDER + 1), st.tuples(*[st.integers(0, 3)] * nvars))
    base = draw(st.dictionaries(key, coeffs, max_size=6))
    poly = MultiPoly(nvars, base)
    expr = sum((sympy.Rational(c) * monomial(k, nvars) for k, c in base.items()), sympy.S.Zero)
    for k in draw(st.lists(st.sampled_from(sorted(base)), max_size=3)) if base else ():
        c = -base[k] if draw(st.booleans()) else draw(coeffs)
        poly = poly + MultiPoly(nvars, {k: c})
        expr += sympy.Rational(c) * monomial(k, nvars)
    return poly, truncated(sympy.Poly(expr, *gens(nvars), domain=sympy.QQ))


@st.composite
def pairs(draw):
    nvars = draw(st.integers(1, 3))
    return nvars, draw(sparse(nvars)), draw(sparse(nvars))


@st.composite
def singles(draw):
    nvars = draw(st.integers(1, 3))
    return nvars, draw(sparse(nvars))


def grade(poly):
    monoms = [m for m, c in poly.as_dict().items() if c]
    return min(m[0] for m in monoms) if monoms else math.inf


@settings(deadline=None, max_examples=150)
@given(case=pairs(), s=scalars)
def test_ring_operations_match_sympy(case, s):
    nvars, (a, pa), (b, pb) = case
    assert as_sympy(a) == pa and as_sympy(b) == pb
    assert as_sympy(a + b) == pa + pb
    assert as_sympy(a - b) == pa - pb
    assert as_sympy(-a) == -pa
    assert as_sympy(a * b) == truncated(pa * pb)
    assert as_sympy(b * a) == truncated(pa * pb)
    assert (a * b).eps_grade() == grade(truncated(pa * pb))
    assert (a + b).eps_grade() == grade(pa + pb)
    assert (a == b) == (pa == pb)
    assert as_sympy(a - b + b) == pa
    assert a - b + b == a
    # scalars on either side
    rs = sympy.Rational(s)
    assert as_sympy(a * s) == pa * rs
    assert as_sympy(s * a) == pa * rs
    assert as_sympy(a + s) == pa + rs
    assert as_sympy(s - a) == rs - pa
    assert as_sympy(a - s) == pa - rs
    assert (a == s) == (pa == sympy.Poly(rs, *gens(nvars), domain=sympy.QQ))


@settings(deadline=None, max_examples=150)
@given(case=singles(), var=st.integers(0, 2), value=scalars)
def test_calculus_matches_sympy(case, var, value):
    nvars, (a, pa) = case
    var %= nvars
    x = XS[var]
    assert as_sympy(a.diff(var)) == pa.diff(x)
    integral = pa.integrate(x).as_expr().subs(x, 1)  # the antiderivative vanishes at 0
    assert as_sympy(a.integrate_unit(var)) == sympy.Poly(integral, *gens(nvars), domain=sympy.QQ)
    fixed = pa.as_expr().subs(x, sympy.Rational(value))
    assert as_sympy(a.subst_const(var, value)) == sympy.Poly(fixed, *gens(nvars), domain=sympy.QQ)


@settings(deadline=None, max_examples=150)
@given(case=singles(), k=st.integers(0, 4))
def test_grading_matches_sympy(case, k):
    nvars, (a, pa) = case
    assert a.eps_grade() == grade(pa)
    assert as_sympy(a.scale_eps(k)) == truncated(pa * sympy.Poly(EPS**k, *gens(nvars)))
    assert as_sympy(a.eps_truncated(k)) == truncated(pa, k)
    component = {(0,) + m[1:]: c for m, c in pa.as_dict().items() if m[0] == k}
    assert as_sympy(a.eps_component(k)) == from_terms(component, nvars)


@settings(deadline=None, max_examples=150)
@given(case=singles())
def test_promote_and_drop_match_sympy(case):
    nvars, (a, pa) = case
    up = a.promote()
    assert up.nvars == nvars + 1
    terms = pa.as_dict()
    assert as_sympy(up) == from_terms({(m[0], 0) + m[1:]: c for m, c in terms.items()}, nvars + 1)
    assert repr(up.drop_leading_var()) == repr(a)
    if any(m[1] for m, c in terms.items() if c):
        with pytest.raises(ValueError):
            a.drop_leading_var()
    else:
        dropped = {(m[0],) + m[2:]: c for m, c in terms.items()}
        assert as_sympy(a.drop_leading_var()) == from_terms(dropped, nvars - 1)


def test_failing_property_prints_its_falsifying_example(tmp_path):
    """Under the suite's warning filters a failing ``@given`` test still reports its example."""
    case = tmp_path / "test_fails.py"
    case.write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n@given(st.integers())\n"
        "def test_small(n):\n    assert n < 10\n"
    )
    config = Path(__file__).parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), str(case)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "Falsifying example" in output and "1 failed" in output
    assert "INTERNALERROR" not in output

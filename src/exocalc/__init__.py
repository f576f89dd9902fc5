"""Topologically deformed flat-spacetime calculus.

A library plus CLI for the geometry generated by replacing coordinate
differentials with ``dx^i + x^i dtheta``: the perturbed bilinear form and
its Clifford layer, spinor <-> point maps, an exact exotic exterior
calculus, and the modified scalar-wave dispersion with quasinormal-like
damped modes.
"""

from .core import (
    EpsSeries,
    MINKOWSKI_SIGNS,
    QI,
    RationalComplex,
    eps_grade,
    lower_index,
    minkowski_dot,
    raise_index,
)

__all__ = [
    "EpsSeries",
    "MINKOWSKI_SIGNS",
    "QI",
    "RationalComplex",
    "eps_grade",
    "lower_index",
    "minkowski_dot",
    "raise_index",
]

__version__ = "0.1.0"

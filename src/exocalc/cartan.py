"""Spinor <-> spacetime-point dictionary and the SL(2,C) double-cover action.

A future null vector is encoded in a pair of complex components whose
outer product is a rank-1 Hermitian 2x2 matrix; unimodular conjugation of
that matrix realizes Lorentz transformations, with ``lam`` and ``-lam``
acting identically.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .core import minkowski_dot

_SQRT2 = math.sqrt(2.0)

SpinorPair = tuple  # (zeta, chi), both complex


def spinor_to_point(s: Sequence) -> tuple:
    """Map a spinor pair to a real, future-pointing null 4-vector.

    ``t = (|z|^2 + |c|^2)/sqrt2``, ``x = (z c* + c z*)/sqrt2``,
    ``y = (z c* - c z*)/(i sqrt2)``, ``z = (|z|^2 - |c|^2)/sqrt2``.
    """
    ze, ch = complex(s[0]), complex(s[1])
    zz = (ze * ze.conjugate()).real
    cc = (ch * ch.conjugate()).real
    zc = ze * ch.conjugate()
    return (
        (zz + cc) / _SQRT2,
        2.0 * zc.real / _SQRT2,
        2.0 * zc.imag / _SQRT2,
        (zz - cc) / _SQRT2,
    )


def point_to_spinor(v: Sequence) -> SpinorPair:
    """Invert :func:`spinor_to_point` on a future null vector.

    The overall phase is a gauge freedom; the canonical convention fixes
    the first component real and nonnegative (second component real >= 0
    when the first vanishes).  Rejects non-null input (relative tolerance
    1e-9) or ``t <= 0``.
    """
    t, x, y, z = (float(c) for c in v)
    scale = max(t * t, x * x + y * y + z * z, 1e-300)
    if abs(minkowski_dot(v, v)) > 1e-9 * scale:
        raise ValueError(f"not a null vector: {tuple(v)!r}")
    if t <= 0:
        raise ValueError("point reconstruction requires t > 0")
    zz = (t + z) / _SQRT2
    cc = (t - z) / _SQRT2
    if zz >= cc:
        ze = math.sqrt(zz)
        ch = complex(x, -y) / (_SQRT2 * ze)
    else:
        ch = math.sqrt(cc)
        ze = complex(x, y) / (_SQRT2 * ch)
        # rotate the pair so the leading component is real >= 0
        if abs(ze) > 0:
            phase = ze / abs(ze)
            ze, ch = ze / phase, ch / phase
    return (complex(ze), complex(ch))


def outer_matrix(s: Sequence) -> np.ndarray:
    """Rank-1 Hermitian matrix ``(z, c)^T (z*, c*)``; its determinant vanishes."""
    ze, ch = complex(s[0]), complex(s[1])
    col = np.array([[ze], [ch]], dtype=complex)
    return col @ col.conj().T


def point_to_hermitian(v: Sequence) -> np.ndarray:
    """Hermitian encoding ``(1/sqrt2) [[t+z, x+iy], [x-iy, t-z]]`` of any 4-vector."""
    t, x, y, z = (complex(c) for c in v)
    return np.array(
        [[t + z, x + 1j * y], [x - 1j * y, t - z]], dtype=complex
    ) / _SQRT2


def hermitian_to_point(m: np.ndarray) -> tuple:
    """Decode the Hermitian encoding back to real vector components."""
    t = (m[0, 0] + m[1, 1]).real / _SQRT2
    z = (m[0, 0] - m[1, 1]).real / _SQRT2
    x = (m[0, 1] + m[1, 0]).real / _SQRT2
    y = ((m[0, 1] - m[1, 0]) / 1j).real / _SQRT2
    return (t, x, y, z)


def sl2c_act(lam: np.ndarray, v_matrix: np.ndarray) -> np.ndarray:
    """Conjugation ``V -> lam V lam^dagger`` for unimodular-in-modulus ``lam``.

    ``det V' = |det lam|^2 det V = det V``, so the encoded quadratic form
    is preserved.  Rejects ``| |det lam| - 1 | > 1e-12``.
    """
    lam = np.asarray(lam, dtype=complex)
    d = np.linalg.det(lam)
    if abs(abs(d) - 1.0) > 1e-12:
        raise ValueError(f"conjugation matrix must have |det| = 1, got |det| = {abs(d)}")
    return lam @ v_matrix @ lam.conj().T


def rotate_phase(s: Sequence, alpha: float) -> SpinorPair:
    """Half-angle phase rotation ``(z, c) -> (e^{i a/2} z, e^{i a/2} c)``.

    Leaves the encoded point fixed; a full ``2*pi`` turn flips the spinor
    sign (double cover), ``4*pi`` is the identity.  Quadrant multiples of
    ``pi`` use the exact unit (``1, i, -1, -i``) so the double-cover signs
    are bitwise clean.
    """
    turns = alpha / math.pi
    if turns == round(turns):
        ph = (1, 1j, -1, -1j)[int(turns) % 4]
    else:
        ph = cmath.exp(0.5j * alpha)
    return (ph * complex(s[0]), ph * complex(s[1]))


def lorentz_matrix(lam: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix of the conjugation action on encoded 4-vectors.

    Extracted by acting on the Hermitian images of the coordinate basis;
    ``lam`` and ``-lam`` give the same matrix.
    """
    cols = []
    for nu in range(4):
        e = [0.0] * 4
        e[nu] = 1.0
        cols.append(hermitian_to_point(sl2c_act(lam, point_to_hermitian(e))))
    return np.array(cols, dtype=float).T

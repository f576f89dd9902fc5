"""Spinor <-> spacetime-point dictionary and the SL(2,C) double-cover action.

A future null vector is encoded in a pair of complex components whose
outer product is a rank-1 Hermitian 2x2 matrix; unimodular conjugation of
that matrix realizes Lorentz transformations, with ``lam`` and ``-lam``
acting identically.

``spinor_to_point``, ``point_to_spinor``, ``outer_matrix``, ``sl2c_act`` and
``sample_residuals`` are array-first: they take one sample or a stack of
samples along leading axes and check every row.  A stacked row gives bit for
bit what plain complex arithmetic gives for that sample alone, because
- a complex modulus is ``np.hypot`` of its parts, as Python's ``abs`` is;
  ``np.abs`` of a complex array may take a SIMD loop that differs in the
  last bit;
- complex division is CPython's (Smith's method), mirrored by ``_quot``;
- the nullity residual squares with a ``map(pow, ..., repeat(2))`` (libm
  ``pow``, the call Python's ``**`` makes), which differs from ``x * x`` in
  the last bit of about one square in a thousand;
- batched ``np.linalg.det`` and stacked ``@`` repeat the per-matrix calls.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
from typing import Sequence

import numpy as np

from .core import minkowski_dot

_SQRT2 = math.sqrt(2.0)

SpinorPair = tuple  # (zeta, chi), both complex


def _quot(ar, ai, br, bi):
    """Real and imaginary parts of ``(ar + i ai) / (br + i bi)`` as CPython divides."""
    first = np.abs(br) >= np.abs(bi)
    # np.where evaluates both branches; the one not taken may overflow or divide by zero
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(first, bi / br, br / bi)
        denom = np.where(first, br + bi * ratio, br * ratio + bi)
        return (
            np.where(first, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(first, ai - ar * ratio, ai * ratio - ar) / denom,
        )


def spinor_to_point(s):
    """Map a spinor pair to a real, future-pointing null 4-vector.

    ``t = (|z|^2 + |c|^2)/sqrt2``, ``x = (z c* + c z*)/sqrt2``,
    ``y = (z c* - c z*)/(i sqrt2)``, ``z = (|z|^2 - |c|^2)/sqrt2``.
    One pair gives a 4-tuple; an ``(..., 2)`` array of pairs gives an
    ``(..., 4)`` array.
    """
    s = np.asarray(s, dtype=complex)
    zr, zi, cr, ci = s[..., 0].real, s[..., 0].imag, s[..., 1].real, s[..., 1].imag
    zz = zr * zr + zi * zi
    cc = cr * cr + ci * ci
    v = np.stack(
        [
            (zz + cc) / _SQRT2,
            2.0 * (zr * cr + zi * ci) / _SQRT2,
            2.0 * (zi * cr - zr * ci) / _SQRT2,
            (zz - cc) / _SQRT2,
        ],
        axis=-1,
    )
    return v if s.ndim > 1 else tuple(v.tolist())


def point_to_spinor(v):
    """Invert :func:`spinor_to_point` on a future null vector.

    The overall phase is a gauge freedom; the canonical convention fixes
    the first component real and nonnegative (second component real >= 0
    when the first vanishes).  Rejects non-null input (relative tolerance
    1e-9) or ``t <= 0`` in any row.  One point gives a pair of complex
    numbers; an ``(..., 4)`` array gives an ``(..., 2)`` complex array.
    """
    v = np.asarray(v, dtype=float)
    t, x, y, z = comps = np.moveaxis(v, -1, 0)
    scale = np.maximum(np.maximum(t * t, x * x + y * y + z * z), 1e-300)
    off = np.abs(minkowski_dot(comps, comps)) > 1e-9 * scale
    if off.any():
        raise ValueError(f"not a null vector: {tuple(v[off][0].tolist())!r}")
    if (t <= 0).any():
        raise ValueError("point reconstruction requires t > 0")
    zz = (t + z) / _SQRT2
    cc = (t - z) / _SQRT2
    north = zz >= cc
    # the larger of |z|^2, |c|^2 fixes its component real; the other one is
    # (x - iy) / (sqrt2 z) in the north, (x + iy) / (sqrt2 c) in the south
    root = np.sqrt(np.where(north, zz, cc))
    zero = np.zeros_like(root)
    o_r, o_i = _quot(x, np.where(north, -y, y), _SQRT2 * root, zero)
    ze = np.where(north, (root, zero), (o_r, o_i))
    ch = np.where(north, (o_r, o_i), (root, zero))
    # rotate a south pair so the leading component is real >= 0
    mag = np.hypot(*ze)
    turn = ~north & (mag > 0)
    phase = _quot(*ze, mag, zero)
    ze = np.where(turn, _quot(*ze, *phase), ze)
    ch = np.where(turn, _quot(*ch, *phase), ch)
    pair = np.stack([*ze, *ch], axis=-1).view(complex)
    return pair if v.ndim > 1 else tuple(pair.tolist())


def outer_matrix(s) -> np.ndarray:
    """Rank-1 Hermitian matrix ``(z, c)^T (z*, c*)``; its determinant vanishes.

    An ``(..., 2)`` array of pairs gives an ``(..., 2, 2)`` stack.
    """
    col = np.asarray(s, dtype=complex)[..., :, None]
    return col @ col.conj().swapaxes(-1, -2)


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
    is preserved.  Rejects ``| |det lam| - 1 | > 1e-12`` in any matrix of a
    ``(..., 2, 2)`` stack.
    """
    lam = np.asarray(lam, dtype=complex)
    d = np.linalg.det(lam)
    mod = np.hypot(d.real, d.imag)
    off = np.abs(mod - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"conjugation matrix must have |det| = 1, got |det| = {mod[off][0]}")
    return lam @ v_matrix @ lam.conj().swapaxes(-1, -2)


def gauss_pairs(rng, pairs: int):
    """The next ``2 * pairs`` values of ``rng.gauss(0, 1)`` as a float64 array,
    bit for bit; ``rng``, a ``random.Random``, must hold no cached second
    value of a pair.

    ``gauss`` draws a Box–Muller pair from two ``random()`` uniforms, each
    built from two 32-bit Mersenne Twister words as ``((a >> 5) * 2**26 +
    (b >> 6)) * 2**-53``. ``getrandbits`` puts the first word it draws in the
    least significant bits, so its little-endian bytes read as ``<u4`` are
    the words in draw order, four a pair. The uniforms, the square root and the
    products are exact or correctly rounded in numpy; ``log``, ``cos`` and
    ``sin`` are ``math``'s, as in ``gauss``, since numpy's need not round as
    they do. Adding ``0.0`` is ``gauss``'s ``mu + z * sigma``: a ``-0.0``
    becomes ``+0.0``.
    """
    words = rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little")
    w = np.frombuffer(words, "<u4").reshape(pairs, 2, 2)
    u = ((w[..., 0] >> 5) * 67108864.0 + (w[..., 1] >> 6)) * (1.0 / 9007199254740992.0)
    x2pi = (u[:, 0] * (2.0 * math.pi)).tolist()
    logs = np.fromiter(map(math.log, (1.0 - u[:, 1]).tolist()), float, count=pairs)
    g2rad = np.sqrt(-2.0 * logs)
    z = np.empty((pairs, 2))
    z[:, 0] = np.fromiter(map(math.cos, x2pi), float, count=pairs) * g2rad
    z[:, 1] = np.fromiter(map(math.sin, x2pi), float, count=pairs) * g2rad
    return z.ravel() + 0.0


def sample_residuals(s: np.ndarray, lam: np.ndarray) -> tuple:
    """The ``cartan`` command's three residuals for stacked samples.

    ``s`` is an ``(n, 2)`` array of spinor pairs and ``lam`` an
    ``(n, 2, 2)`` array of complex matrices, each shifted by the identity
    when ``|det lam| < 1e-8`` and then scaled to ``|det lam| = 1``.  Returns
    three float64 arrays: the spinor -> point -> spinor -> point roundtrip
    error over ``max(1, t)`` (0 where ``t <= 1e-12``), the nullity
    ``|t^2 - x^2 - y^2 - z^2| / max(1, t^2)``, each square a libm ``pow`` of
    one ``map(pow, ..., repeat(2))`` as Python's ``**`` makes it, and
    ``|det(lam V lam^dagger) - det V|`` over
    ``max(1, (||lam||_F^2 t)^2)``.  ``V`` has rank 1, so ``det V`` is 0 up to
    rounding, and the entries of ``lam V lam^dagger`` are of size
    ``||lam||_F^2 t``: the determinant residual is its rounding, of order
    ``(||lam||_F^2 t)^2`` ulp, so it is read on that scale.
    """
    v = spinor_to_point(s)
    nonzero = v[:, 0] > 1e-12
    roundtrip = np.zeros(len(v))
    back = spinor_to_point(point_to_spinor(v[nonzero]))
    roundtrip[nonzero] = np.abs(v[nonzero] - back).max(axis=1) / np.maximum(1.0, v[nonzero, 0])
    sq = np.fromiter(map(pow, v.ravel().tolist(), repeat(2)), float, count=v.size).reshape(-1, 4)
    nullity = np.abs(sq[:, 0] - sq[:, 1] - sq[:, 2] - sq[:, 3]) / np.maximum(1.0, v[:, 0] * v[:, 0])

    lam = np.array(lam, dtype=complex)
    d = np.linalg.det(lam)
    small = np.hypot(d.real, d.imag) < 1e-8
    lam[small] += np.eye(2)
    d[small] = np.linalg.det(lam[small])
    lam = lam / np.sqrt(np.hypot(d.real, d.imag))[:, None, None]
    vm = outer_matrix(s)
    # not ``sl2c_act``: a lam of small raw |det| is unimodular only to about
    # u ||lam||_F^2 / |det| once scaled, which its 1e-12 check would reject
    res = np.linalg.det(lam @ vm @ lam.conj().swapaxes(-1, -2)) - np.linalg.det(vm)
    # ||lam||_F^2 summed entry by entry, in row-major order
    sq = (lam.real * lam.real + lam.imag * lam.imag).reshape(-1, 4)
    size = (((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3]) * v[:, 0]
    det_res = np.hypot(res.real, res.imag) / np.maximum(1.0, size * size)
    return roundtrip, nullity, det_res


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

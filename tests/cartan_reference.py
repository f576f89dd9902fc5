"""Per-sample reference for the ``cartan`` command, kept as a test oracle.

These are the scalar spinor/point formulas and the one-sample-at-a-time
loop that ``cli.cartan_rows`` ran before it computed whole chunks of
samples with stacked arrays.  They are written out here instead of calling
``exocalc.cartan``, so a change to the library's formulas cannot move the
oracle along with it.  The batched command must reproduce these row
strings byte for byte.
"""

from __future__ import annotations

import math
import random

import numpy as np

_SQRT2 = math.sqrt(2.0)


def spinor_to_point(s) -> tuple:
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


def point_to_spinor(v) -> tuple:
    t, x, y, z = (float(c) for c in v)
    scale = max(t * t, x * x + y * y + z * z, 1e-300)
    if abs(t * t - x * x - y * y - z * z) > 1e-9 * scale:
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
        if abs(ze) > 0:
            phase = ze / abs(ze)
            ze, ch = ze / phase, ch / phase
    return (complex(ze), complex(ch))


def outer_matrix(s) -> np.ndarray:
    ze, ch = complex(s[0]), complex(s[1])
    col = np.array([[ze], [ch]], dtype=complex)
    return col @ col.conj().T


def sl2c_act(lam, v_matrix) -> np.ndarray:
    lam = np.asarray(lam, dtype=complex)
    d = np.linalg.det(lam)
    if abs(abs(d) - 1.0) > 1e-12:
        raise ValueError(f"conjugation matrix must have |det| = 1, got |det| = {abs(d)}")
    return lam @ v_matrix @ lam.conj().T


def sample_cells(s, lam) -> tuple:
    """``(roundtrip_err, nullity_residual, det_residual)`` of one sample; the
    determinant residual is read on its rounding scale ``(||lam||_F^2 t)^2``.

    ``s`` is a spinor pair and ``lam`` a 2x2 complex matrix as drawn, before
    it is made unimodular.
    """
    v = spinor_to_point(s)
    scale = max(1.0, v[0] * v[0])
    nullity = abs(v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2) / scale
    if v[0] > 1e-12:
        back = spinor_to_point(point_to_spinor(v))
        roundtrip = max(abs(a - b) for a, b in zip(v, back)) / max(1.0, abs(v[0]))
    else:
        roundtrip = 0.0
    lam = np.array(lam, dtype=complex)
    det = np.linalg.det(lam)
    if abs(det) < 1e-8:
        lam = lam + np.eye(2)
        det = np.linalg.det(lam)
    lam = lam / np.sqrt(abs(det))
    vm = outer_matrix(s)
    out = lam @ vm @ lam.conj().T  # lam is scaled already; see exocalc.cartan.sample_residuals
    size = sum(c.real * c.real + c.imag * c.imag for c in lam.ravel()) * v[0]
    det_res = abs(np.linalg.det(out) - np.linalg.det(vm)) / max(1.0, size * size)
    return roundtrip, nullity, det_res


def cartan_rows_reference(n: int, seed: int) -> list:
    """The ``cartan.csv`` body lines for ``n`` samples drawn from ``seed``."""
    rng = random.Random(seed)
    rows = []
    for idx in range(n):
        s = (
            complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            complex(rng.gauss(0, 1), rng.gauss(0, 1)),
        )
        lam = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
        cells = sample_cells(s, lam)
        rows.append(",".join([str(idx), *("%.12e" % float(c) for c in cells)]) + "\n")
    return rows

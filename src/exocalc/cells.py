"""The CLI's bulk cell formatter: whole tables of ``FLOAT_SPEC`` cells with numpy.

``simulate`` writes its snapshot CSV a block of whole snapshots at a time
(``_snapshot_blocks``) and ``cartan`` its rows a chunk of samples at a time
(``_indexed_lines``). Every cell reads as ``cli.fmt`` of its value: ``_cells``
writes the ones whose rounding it has proved and ``FLOAT_SPEC %`` the rest.
Only those two commands import this module, so the others never compile it.
"""

from __future__ import annotations

import functools

import numpy as np

from .cli import FLOAT_SPEC

# bytes of a value cell: ``,`` and a ``FLOAT_SPEC`` cell (at most 20 characters), space-padded
CELL = 24
# values formatted per snapshot block: whole snapshots, so it bounds the buffers held at once
BLOCK_VALUES = 8192
# the exponents the fast path can meet: |x| in [1e-290, 1e290], guessed within one
E_MIN, E_MAX = -292, 291


@functools.cache
def _cell_tables():
    """The fast path's tables, built on its first call: ``powers[i]`` is
    ``float(f"1e{12 - E_MAX + i}")``, which CPython rounds correctly. The
    others hold ASCII, one machine word an entry: ``lead`` is ``, d.`` and
    ``,-d.`` for each digit ``d``, ``digits4`` the four digits of 0..9999 and
    ``exps`` ``e±dd[d]``, padded to 8 bytes, for each exponent from ``E_MIN``."""

    def words(cells, dtype):
        return np.frombuffer("".join(cells).encode(), dtype)

    powers = np.array([float(f"1e{k}") for k in range(12 - E_MAX, 13 - E_MIN)])
    lead = words([f",{sign}{d}." for sign in " -" for d in range(10)], np.uint32)
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    digits4 = digits.astype(np.uint8).view(np.uint32).ravel()
    exps = words([f"e{e:+03d}".ljust(8) for e in range(E_MIN, E_MAX + 1)], np.uint64)
    return powers, lead, digits4, exps


def _cells(values):
    """``(cells, fast)`` for a 1-D float64 array: where ``fast`` is true, row
    ``i`` of the ``(len(values), CELL)`` bytes ``cells`` is ``"," + FLOAT_SPEC %
    values[i]`` padded with spaces.

    ``%.12e`` writes the 13-digit decimal nearest ``|x|``, ties to even. With
    ``e`` the guess ``floor(log10|x|)``, moved by one where ``s`` falls outside
    ``[1e12, 1e13)``, the fast path takes the digits ``r = rint(s)`` of
    ``s = fl(|x| * P)`` with ``P = fl(10^(12 - e))``. Each rounding errs by a
    factor ``1 + d``, ``|d| <= u = 2^-53``, so the exact ``S = |x| * 10^(12 - e)``
    obeys ``|s - S| <= (2u + u^2) * S``; as ``s < 1e13`` gives
    ``S < 1e13 / (1 - u)^2``, ``|s - S| < (2u + u^2) * 1e13 * (1 + 3u) < 2.3e-3 < 2^-8``.
    A value is fast only if
    - ``|x|`` lies in ``[1e-290, 1e290]``, so ``P`` and ``s`` are normal and
      finite (zero, subnormals, ``inf`` and ``nan`` are not);
    - ``s`` lies in ``[1e12, 1e13)`` and ``r < 1e13``;
    - ``|s - r| < 1/2 - 2^-8``.

    The last rule puts ``s`` and ``S`` strictly inside one interval
    ``(r - 1/2, r + 1/2)``, so ``r`` is the integer nearest ``S`` and no tie
    arises. If ``S`` is in ``[1e12, 1e13)``, ``r * 10^(e - 12)`` is the decimal
    ``%.12e`` writes; if ``S`` is just below ``1e12``, ``r = 1e12`` is the carry
    ``%.12e`` makes into exponent ``e``. Nothing depends on ``log10`` being
    accurate: a wrong guess only leaves ``s`` outside the range, and a guess
    beyond the table is clamped to its ends, where ``s`` is below ``1e11`` or
    above ``1e14``. Every other value is left to ``FLOAT_SPEC %``.
    """
    powers, lead, digits4, exps = _cell_tables()
    a = np.abs(values)
    ok = (a >= 1e-290) & (a <= 1e290)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    # a guess wrong by more than one can overflow or underflow ``s``; that value is not fast
    with np.errstate(over="ignore", under="ignore"):
        s = a * powers.take(E_MAX - e, mode="clip")
        e += s >= 1e13
        e -= s < 1e12
        s = a * powers.take(E_MAX - e, mode="clip")
    r = np.rint(s)
    fast = ok & (s >= 1e12) & (r < 1e13) & (np.abs(s - r) < 0.5 - 2.0**-8)
    # words: the lead ``,-d.``, three groups of four digits, the exponent (two words)
    cells = np.empty((len(values), CELL // 4), np.uint32)
    digits = np.where(fast, r, 0.0).astype(np.int64)
    for word in (3, 2, 1):
        rest = digits // 10_000
        cells[:, word] = digits4[digits - 10_000 * rest]
        digits = rest
    cells[:, 0] = lead[digits + 10 * np.signbit(values)]
    cells.view(np.uint64)[:, 2] = exps.take(e - E_MIN, mode="clip")
    return cells.view(np.uint8), fast


def _padded(cells: list, width: int = CELL):
    """``cells``, strings of at most ``width`` characters, as rows of ``width``
    bytes padded with spaces."""
    return np.frombuffer("".join(c.ljust(width) for c in cells).encode(), np.uint8).reshape(-1, width)


def _block_cells(values):
    """``_cells`` of ``values`` with ``FLOAT_SPEC %`` in the cells it cannot
    prove; its own frame, so its arrays are freed before a block is compacted."""
    cells, fast = _cells(values)
    slow = np.flatnonzero(~fast)
    cells[slow] = _padded(["," + FLOAT_SPEC % v for v in values[slow].tolist()])
    return cells


def _snapshot_blocks(times, xs, snapshots):
    """The ``t,x,re_phi,im_phi`` rows as ASCII ``bytes`` blocks of whole
    snapshots, yielded one by one, so only one block's buffers are held at a
    time.

    Every cell reads as ``fmt`` of its value. A block holds
    ``max(1, BLOCK_VALUES // (2 * len(xs)))`` snapshots (the last may hold
    fewer), so a snapshot of more than ``BLOCK_VALUES`` values is a block of
    its own. A row is laid out as space-padded cells and a newline, in one
    row buffer that every block reuses, and the block drops the spaces: the
    ``t`` and ``x`` columns as wide as the run's widest ``t`` and ``x``
    cell, so a run whose cells of a column are equally wide pads none of
    them, and each value cell ``CELL`` bytes. ``x`` is formatted once, a
    block's ``t`` cells once and broadcast over each snapshot's rows (the
    ``t`` width is found in a first pass that keeps no cell), and a block's
    real and imaginary parts in one ``_cells`` pass; ``FLOAT_SPEC %`` fills
    the cells it cannot prove.
    """
    n = len(xs)
    parts = np.ascontiguousarray(snapshots, dtype=np.complex128).view(np.float64)
    k = max(1, BLOCK_VALUES // (2 * n))
    x_cells = ["," + FLOAT_SPEC % x for x in xs.tolist()]
    t_end = max((len(FLOAT_SPEC % t) for t in times), default=0)
    x_end = t_end + max(map(len, x_cells))
    rows = np.empty((min(k, len(parts)), n, x_end + 2 * CELL + 1), np.uint8)
    rows[:, :, t_end:x_end] = _padded(x_cells, x_end - t_end)
    rows[..., -1] = ord("\n")
    for start in range(0, len(parts), k):
        values = parts[start : start + k]
        block = rows[: len(values)]
        t_cells = _padded([FLOAT_SPEC % t for t in times[start : start + k].tolist()], t_end)
        block[..., :t_end] = t_cells[:, None]
        block[..., x_end:-1] = _block_cells(values.ravel()).reshape(len(values), n, 2 * CELL)
        yield block[block != ord(" ")].tobytes()


def _indexed_lines(start: int, columns) -> list:
    """The lines ``idx,c_1,...,c_k`` for ``idx`` from ``start`` on, one a row
    of the float64 ``columns`` (``k`` arrays of one length), as ``str``.

    Every cell reads as ``fmt`` of its value. The rows are laid out in one
    buffer as ``_snapshot_blocks`` lays out a block: the index right-aligned
    to the widest index's digits, then ``CELL`` bytes a value from
    ``_block_cells`` and a newline; the spaces are dropped and the text is
    split into its lines.
    """
    values = np.column_stack(columns)
    size, k = values.shape
    width = len(str(start + size - 1))
    idx = np.arange(start, start + size)[:, None]
    place = 10 ** np.arange(width - 1, -1, -1)
    rows = np.empty((size, width + k * CELL + 1), np.uint8)
    rows[:, :width] = idx // place % 10 + ord("0")
    # leading zeros become spaces; the last digit is kept, so 0 reads as ``0``
    rows[:, : width - 1][idx < place[:-1]] = ord(" ")
    rows[:, width:-1] = _block_cells(values.ravel()).reshape(size, k * CELL)
    rows[:, -1] = ord("\n")
    return rows[rows != ord(" ")].tobytes().decode().splitlines(keepends=True)

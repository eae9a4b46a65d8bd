"""Exact ``%.17g`` and ``%.2f`` text of many doubles at once, as rows of bytes.

:func:`float_cells` writes ``FLOAT_SPEC % v`` of every value of a float
array, byte for byte, without a ``%`` per value where it can: in the range
``1e-4 <= |v| < 1e16`` the 17 correctly rounded digits are computed exactly
in numpy, with Dekker's error-free product (Dekker, "A floating-point
technique for extending the available precision", Numer. Math. 18, 1971)
by a power of ten that is an exact double. :func:`pixel_cells` writes
``'%.2f' % v`` for ``|v| < 1e7`` from the exact product by 100. The
output layer of :mod:`shiftknot.cli` writes its CSV and JSON tables from
the first and its SVG polylines from the second.
"""

from __future__ import annotations

import functools

import numpy as np

from .files import FLOAT_SPEC

__all__ = ["CELL", "fallback_cells", "float_cells", "pixel_cells"]

# bytes per float cell: the longest FLOAT_SPEC text, "-2.2250738585072014e-308"
CELL = 24
# printf spec of every SVG pixel coordinate
PIXEL_SPEC = "%.2f"
# pixel_cells writes pixels below this magnitude, in rows of _PIXEL_CELL
# bytes: the longest such text is "-10000000.00"
_PIXEL_LIMIT = 1e7
_PIXEL_CELL = 12
# Veltkamp's splitter 2**27 + 1: halves of 26 bits whose products are exact
_SPLIT = 134217729.0


@functools.lru_cache(maxsize=None)
def _cell_tables():
    """Lookup tables of :func:`float_cells`, built on first use.

    - ``quads``: the four ASCII digits of 0..9999 as one ``uint32`` each,
      so that ``quads[0]`` is ``"0000"`` and ``quads[d]`` is ``"000d"``;
    - ``zeros``: the trailing decimal zeros of 0..9999 (4 for 0);
    - ``pow10``, ``pow10_hi``, ``pow10_lo``: the exact doubles ``10**k``,
      k = 0..22, and their Veltkamp halves;
    - ``keep``: row L holds L bytes 0xFF then NULs, to cut a cell at L bytes.
    """
    # axis k of the (10, 10, 10, 10) grids is the k-th digit of the group
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    zeros = np.zeros((10, 10, 10, 10), dtype=np.int8)
    for k in range(4):
        digits[..., k] = np.frombuffer(b"0123456789", dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - k))
        zeros[(slice(None),) * k + (0,) * (4 - k)] += 1
    quads = digits.reshape(10_000, 4).view(np.uint32).ravel()
    pow10 = np.array([float(10**k) for k in range(23)])
    pow10_hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    keep = np.array([[255] * length + [0] * (CELL - length) for length in range(CELL + 1)],
                    dtype=np.uint8)
    return quads, zeros.ravel(), pow10, pow10_hi, pow10 - pow10_hi, keep


@functools.lru_cache(maxsize=None)
def _pixel_tables():
    """Lookup tables of :func:`pixel_cells`, as ``uint32`` words of four
    bytes, built on first use from the 4-digit groups of
    :func:`_cell_tables`:

    - ``groups``: entries 0..9999 the group of ``k``, entries 10000..19999
      the group of ``k - 10000`` with its leading zeros NUL but the last;
    - ``heads``: the group of 0..1000 with its leading zeros NUL, 0 all NUL;
    - ``tails``: ``.``, the two digits of 0..99, then NUL;
    - ``minus``: NUL, NUL, NUL, ``-``.
    """
    quads = _cell_tables()[0]
    groups = np.concatenate([quads, quads])
    # k < 10**j has 4 - j leading zeros
    for j in (3, 2, 1):
        groups[10_000 : 10_000 + 10**j] &= np.frombuffer(bytes(4 - j) + b"\xff" * j,
                                                         dtype=np.uint32)[0]
    heads = groups[10_000:11_001].copy()
    heads[0] = 0
    tails = np.zeros((100, 4), dtype=np.uint8)
    tails[:, 0] = ord(".")
    tails[:, 1:3] = quads[:100].view(np.uint8).reshape(-1, 4)[:, 2:]
    minus = np.frombuffer(b"\0\0\0-", dtype=np.uint32)[0]
    return heads, groups, tails.view(np.uint32).ravel(), minus


def _two_product(a, scale, scale_hi, scale_lo, at=None):
    """Dekker's TwoProduct: ``a * scale == p + err`` exactly, with ``p``
    the rounded double and ``err`` the exact rest; ``scale_hi`` and
    ``scale_lo`` are the Veltkamp halves of ``scale``. With ``at``, the
    three are tables read at the indices ``at``, each just before its
    product, so that one gathered scale is held at a time."""
    pick = (lambda scale: scale) if at is None else (lambda table: table.take(at))
    p = a * pick(scale)
    # a_hi = split - (split - a) with split = _SPLIT * a, then the rest
    # ((a_hi * scale_hi - p) + a_hi * scale_lo + a_lo * scale_hi) + a_lo * scale_lo,
    # in place and in that order
    a_hi = _SPLIT * a
    a_lo = a_hi - a
    a_hi -= a_lo
    a_lo = np.subtract(a, a_hi, out=a_lo)
    err = a_hi * pick(scale_hi)
    err -= p
    a_hi *= pick(scale_lo)
    err += a_hi
    a_hi = np.multiply(a_lo, pick(scale_hi), out=a_hi)
    err += a_hi
    del a_hi
    a_lo *= pick(scale_lo)
    err += a_lo
    return p, err


def _scaled_digits(a, exp, pow10, pow10_hi, pow10_lo):
    """``round-half-even(a * 10**(16 - exp))`` exactly, as ``int64``.

    Above 2**53 the rounded product ``p`` is an even integer, so rounding
    its rest ``err`` half to even rounds the sum half to even.
    """
    p, err = _two_product(a, pow10, pow10_hi, pow10_lo, at=16 - exp)
    digits = p.astype(np.int64)
    del p
    digits += np.rint(err, out=err).astype(np.int64)
    return digits


def _digit_groups(digits):
    """The 17-digit ``int64`` ``digits`` as rows, shape ``(5, len(digits))``:
    the leading digit, then the four groups of four.

    Each split is a floor division by a scalar and one subtraction, along
    contiguous rows. numpy's integer ``//`` by a scalar runs as a multiply
    and a shift, but its ``%`` and ``divmod`` run one hardware division per
    element, three to four times slower on ``int64``. The halves of eight
    digits fit ``int32``, whose division is faster still.
    """
    groups = np.empty((5, len(digits)), dtype=np.int32)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    groups[0] = lead
    del lead
    high = rest // 10**8
    groups[2] = high
    rest -= high * 10**8
    groups[4] = rest
    del high, rest
    # rows 2 and 4 hold the two halves of eight digits: split both at once
    np.floor_divide(groups[2::2], 10**4, out=groups[1::2])
    groups[2::2] -= groups[1::2] * 10**4
    return groups


def _lay_out(source, counts):
    """The cells of values sorted by exponent ``E``, ``counts`` of each
    ``E + 4``, from their zero-led rows ``source``: from column 1 the
    ``max(E, 0) + 1`` digits before the ``.``, then the ``.``, then the
    rest of the row. For ``E < 0`` the row's zeros are the ``0`` and the
    ``-E - 1`` zeros after the ``.``. One slice per part and exponent;
    column 0, the sign's, is left to the caller."""
    cells = np.empty((len(source), CELL), dtype=np.uint8)
    lo = 0
    for e, count in enumerate(counts, start=-4):
        if not count:
            continue
        cell, src, lo = cells[lo : lo + count], source[lo : lo + count], lo + count
        # the first digit written, the leading one or a zero before it
        first, whole = 7 + min(e, 0), max(e, 0) + 1
        cell[:, 1 : 1 + whole] = src[:, first : first + whole]
        cell[:, 1 + whole] = ord(".")
        cell[:, 2 + whole : 26 - first] = src[:, first + whole :]
    return cells


def fallback_cells(values: np.ndarray) -> np.ndarray:
    """``FLOAT_SPEC % v`` of each of ``values``, as NUL-padded cells of
    ``CELL`` bytes, which every such text fits."""
    texts = [FLOAT_SPEC % v for v in values.tolist()]
    return np.array(texts, dtype=f"S{CELL}").view(np.uint8).reshape(-1, CELL)


def float_cells(values) -> np.ndarray:
    """``FLOAT_SPEC % v`` of each of the 1-D float ``values``, byte for
    byte, left-justified in NUL-padded rows of shape ``(len(values), 24)``.

    In the fast range ``1e-4 <= |v| < 1e16``, ``%.17g`` writes the 17-digit
    rounding ``D * 10**(E - 16)`` in fixed notation. The steps:

    1. ``E`` comes from ``log10`` and ``D`` from Dekker's exact product by
       ``10**(16 - E)``, an exact double there (:func:`_scaled_digits`).
       ``E`` is corrected until ``D`` has 17 digits, which also takes a
       rounding that carries to ``10**17``.
    2. The values are sorted by ``E``, their layout.
    3. ``D`` is split into its leading digit and four groups of four, by
       floor division (:func:`_digit_groups`).
    4. The cell's length: it ends at the last nonzero digit of the
       fraction, or before the ``.`` when there is none. That digit is
       found from the last group's trailing zeros, and from an earlier
       group's only for the values whose later groups are all zero.
    5. Each value's row of 24 source bytes is read from a table of 4-digit
       groups: ``"0000"``, the leading digit as ``"000d"``, then the four
       groups. Each layout is written with slices from column 1
       (:func:`_lay_out`), and the length cuts the cell.
    6. The cells are put back in the input's order, column 0 takes the
       sign, ``-`` or NUL, and every other value (zeros, subnormals, large,
       tiny and non-finite ones) goes to :func:`fallback_cells`, whose text
       starts in column 0.

    Each temporary is freed once spent: a call peaks near 65 bytes a
    value, the 24 of the cells included.
    """
    quads, zeros, pow10, pow10_hi, pow10_lo, keep = _cell_tables()
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0
    exp = np.floor(np.log10(a)).astype(np.int8)
    digits = _scaled_digits(a, exp, pow10, pow10_hi, pow10_lo)
    while True:
        off = np.flatnonzero((digits - 10**16).view(np.uint64) >= 9 * 10**16)
        if not off.size:
            break
        fix = digits.take(off)
        exp[off] += (fix >= 10**17).view(np.int8) - (fix < 10**16).view(np.int8)
        digits[off] = _scaled_digits(a.take(off), exp.take(off), pow10, pow10_hi, pow10_lo)
    del a
    # one layout per exponent: sort the values by it
    layout = (exp + 4).view(np.uint8)
    order = np.argsort(layout, kind="stable")
    counts = np.bincount(layout, minlength=20).tolist()
    del layout
    digits, exp = digits.take(order), exp.take(order)
    groups = _digit_groups(digits)
    del digits
    # index of the last nonzero digit: the last group's trailing zeros, then
    # an earlier group's for the values whose later groups are all zero
    last = 16 - zeros.take(groups[4])
    for g in (3, 2, 1):
        at = np.flatnonzero(last == 4 * g)
        if not at.size:
            break
        last[at] -= zeros.take(groups[g].take(at))
    # the sign's column, the digits, and the "." when a digit follows it
    length = np.where(last > exp, last + 3 - np.minimum(exp, 0), exp + 2)
    del last, exp
    # the zero-led source rows: "0000", "000d", then the four groups
    words = np.empty((len(x), 6), dtype=np.uint32)
    words[:, 0] = quads[0]
    for g in range(5):
        quads.take(groups[g], out=words[:, g + 1], mode="clip")
    del groups
    sorted_cells = _lay_out(words.view(np.uint8), counts)
    del words
    sorted_cells &= keep.take(length, axis=0)
    del length
    rank = np.empty_like(order)
    rank[order] = np.arange(len(x))
    del order
    cells = sorted_cells.take(rank, axis=0)
    cells[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    if slow.size:
        cells[slow] = fallback_cells(x[slow])
    return cells


def pixel_cells(values) -> np.ndarray:
    """``PIXEL_SPEC % v`` of each of the 1-D float ``values``, which must
    lie below ``_PIXEL_LIMIT`` (1e7) in magnitude, byte for byte, as rows
    of a ``uint8`` array of shape ``(len(values), 12)`` whose NUL bytes are
    to be dropped: NUL may stand anywhere in a row.

    A row is the sign, eight integer digits with their leading zeros NUL,
    ``.`` and two digits. They spell ``round-half-even(|v| * 100)``, made
    exact from Dekker's product by 100 (:func:`_two_product`): ``rint`` of
    the rounded product stands unless it lands exactly on a half, where
    the sign of the exact rest decides, and a zero rest leaves ``rint``'s
    half to even.
    """
    heads, groups, tails, minus = _pixel_tables()
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    p, err = _two_product(a, 100.0, 100.0, 0.0)
    # one call takes a whole stack of polylines: each temporary goes once
    # spent, which keeps the peak near six doubles a value
    del a
    cents = np.rint(p)
    half = np.subtract(p, cents, out=p)
    # at most 10**9 cents, which int32 holds
    cents = cents.astype(np.int32)
    cents += (half == 0.5) & (err > 0)
    cents -= (half == -0.5) & (err < 0)
    del half, err
    # floor division by scalars and a subtraction each, as in float_cells:
    # the cents become the fraction, then the whole part its low group
    whole = cents // 100
    frac = np.subtract(cents, whole * 100, out=cents)
    high = whole // 10_000
    low = np.subtract(whole, high * 10_000, out=whole)
    # words: the sign, four integer digits, four more, then "." and the cents
    words = np.empty((len(x), 4), dtype=np.uint32)
    words[:, 0] = np.signbit(x) * minus
    words[:, 1] = heads.take(high)
    words[:, 2] = groups.take(low + (high == 0) * 10_000)
    words[:, 3] = tails.take(frac)
    return words.view(np.uint8)[:, 3 : 3 + _PIXEL_CELL]

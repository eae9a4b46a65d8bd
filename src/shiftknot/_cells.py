"""Exact ``%.17g`` text of many doubles at once, as rows of bytes.

:func:`float_cells` writes ``FLOAT_SPEC % v`` of every value of a float
array, byte for byte, without a ``%`` per value where it can: in the range
``1e-4 <= |v| < 1e16`` the 17 correctly rounded digits are computed exactly
in numpy, with Dekker's error-free product (Dekker, "A floating-point
technique for extending the available precision", Numer. Math. 18, 1971)
by a power of ten that is an exact double. The output layer of
:mod:`shiftknot.cli` writes its CSV and JSON tables from these cells.
"""

from __future__ import annotations

import functools

import numpy as np

from .files import FLOAT_SPEC

__all__ = ["CELL", "fallback_cells", "float_cells"]

# bytes per float cell: the longest FLOAT_SPEC text, "-2.2250738585072014e-308"
CELL = 24
# Veltkamp's splitter 2**27 + 1: halves of 26 bits whose products are exact
_SPLIT = 134217729.0


@functools.lru_cache(maxsize=None)
def _cell_tables():
    """Lookup tables of :func:`float_cells`, built on first use.

    - ``quads``: the four ASCII digits of 0..9999 as one ``uint32`` each;
    - ``zeros``: the trailing decimal zeros of 0..9999 (4 for 0);
    - ``pow10``, ``pow10_hi``, ``pow10_lo``: the exact doubles ``10**k``,
      k = 0..22, and their Veltkamp halves;
    - ``keep``: row L holds L ones then zeros, to cut a cell at L bytes.
    """
    # axis k of the (10, 10, 10, 10) grids is the k-th digit of the group
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    zeros = np.zeros((10, 10, 10, 10), dtype=np.int64)
    for k in range(4):
        digits[..., k] = np.frombuffer(b"0123456789", dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - k))
        zeros[(slice(None),) * k + (0,) * (4 - k)] += 1
    quads = digits.reshape(10_000, 4).view(np.uint32).ravel()
    pow10 = np.array([float(10**k) for k in range(23)])
    pow10_hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    keep = np.array([[1] * length + [0] * (CELL - length) for length in range(CELL + 1)],
                    dtype=np.uint8)
    return quads, zeros.ravel(), pow10, pow10_hi, pow10 - pow10_hi, keep


def _scaled_digits(a, exp, pow10, pow10_hi, pow10_lo):
    """``round-half-even(a * 10**(16 - exp))`` exactly, as ``int64``.

    Dekker's TwoProduct splits the product into ``p + err`` with ``p`` its
    rounded double and ``err`` the exact rest. Above 2**53 ``p`` is an even
    integer, so rounding ``err`` half to even rounds the sum half to even.
    """
    k = 16 - exp
    scale, scale_hi, scale_lo = pow10[k], pow10_hi[k], pow10_lo[k]
    p = a * scale
    split = _SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    err = ((a_hi * scale_hi - p) + a_hi * scale_lo + a_lo * scale_hi) + a_lo * scale_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def fallback_cells(values: np.ndarray) -> np.ndarray:
    """``FLOAT_SPEC % v`` of each of ``values``, as cells."""
    texts = [FLOAT_SPEC % v for v in values.tolist()]
    return np.array(texts, dtype=f"S{CELL}").view(np.uint8).reshape(-1, CELL)


def float_cells(values) -> np.ndarray:
    """``FLOAT_SPEC % v`` of each of the 1-D float ``values``, byte for
    byte, left-justified in NUL-padded rows of shape ``(len(values), 24)``.

    In the fast range ``1e-4 <= |v| < 1e16``, ``%.17g`` writes the 17-digit
    rounding ``D * 10**(E - 16)`` in fixed notation. ``E`` comes from
    ``log10`` and is corrected until ``D`` has 17 digits, which also takes
    a rounding that carries to ``10**17``; ``10**(16 - E)`` is an exact
    double there, so ``D`` is exact (:func:`_scaled_digits`). The digits
    come from a table of 4-digit groups. Values are grouped by sign and
    ``E``, and each group is laid out with slices: the ``.`` after digit
    ``E``, or ``0.`` and ``-E - 1`` zeros first when ``E < 0``. The cell
    then ends at the last nonzero digit of the fraction, or before the
    ``.`` when there is none. Every other value (zeros, subnormals, large,
    tiny and non-finite ones) goes to :func:`fallback_cells`.
    """
    quads, zeros, pow10, pow10_hi, pow10_lo, keep = _cell_tables()
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0
    exp = np.floor(np.log10(a)).astype(np.int64)
    digits = _scaled_digits(a, exp, pow10, pow10_hi, pow10_lo)
    while True:
        up, down = digits >= 10**17, digits < 10**16
        off = np.flatnonzero(up | down)
        if not off.size:
            break
        exp[off] += up[off].astype(np.int64) - down[off]
        digits[off] = _scaled_digits(a[off], exp[off], pow10, pow10_hi, pow10_lo)
    # one layout per sign and exponent: sort the values by it
    neg = np.signbit(x)
    layout = (2 * (exp + 4) + neg).astype(np.uint8)
    order = np.argsort(layout, kind="stable")
    counts = np.bincount(layout, minlength=40).tolist()
    digits, exp, neg = digits[order], exp[order], neg[order]
    # the 17 digits at bytes 3..19: the leading one, then four groups of four
    lead, rest = np.divmod(digits, 10**16)
    groups = np.empty((len(x), 4), dtype=np.int64)
    groups[:, 0], groups[:, 1] = np.divmod(rest // 10**8, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(rest % 10**8, 10**4)
    source = np.empty((len(x), 20), dtype=np.uint8)
    source[:, 3] = lead + ord("0")
    source[:, 4:].view(np.uint32)[...] = quads.take(groups)
    source = source[:, 3:]
    sorted_cells = np.zeros((len(x), CELL), dtype=np.uint8)
    lo = 0
    for kind, count in enumerate(counts):
        if not count:
            continue
        e, sign = kind // 2 - 4, kind % 2
        cell, src, lo = sorted_cells[lo : lo + count], source[lo : lo + count], lo + count
        if sign:
            cell[:, 0] = ord("-")
        if e >= 0:
            cell[:, sign : sign + e + 1] = src[:, : e + 1]
            cell[:, sign + e + 1] = ord(".")
            cell[:, sign + e + 2 : sign + 18] = src[:, e + 1 :]
        else:
            cell[:, sign : sign + 1 - e] = np.frombuffer(b"0.000"[: 1 - e], dtype=np.uint8)
            cell[:, sign + 1 - e : sign + 18 - e] = src
    # index of the last nonzero digit, from the groups' trailing zeros
    tz = zeros.take(groups)
    last = 16 - (tz[:, 3] + (tz[:, 3] == 4) * (
        tz[:, 2] + (tz[:, 2] == 4) * (tz[:, 1] + (tz[:, 1] == 4) * tz[:, 0])))
    length = np.where(exp < 0, last + 2 - exp, np.where(last <= exp, exp + 1, last + 2)) + neg
    sorted_cells *= keep.take(length, axis=0)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(x))
    cells = sorted_cells.take(rank, axis=0)
    if slow.size:
        cells[slow] = fallback_cells(x[slow])
    return cells

"""The exact cell kernels against ``FLOAT_SPEC % v`` and ``'%.2f' % v``.

Every cell must hold the bytes of its value's text, and every value must
take the path its magnitude calls for: the numpy fast path (``1e-4 <= |v|
< 1e16`` for ``float_cells``, ``|v| < 1e7`` for ``pixel_cells``),
``fallback_cells`` everywhere else.
"""

import contextlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftknot import Curve, _cells, make_config, sample_curve
from shiftknot.basis import MAX_DEGREE
from shiftknot.files import FLOAT_SPEC


def _fast(v: float) -> bool:
    return 1e-4 <= abs(v) < 1e16


@contextlib.contextmanager
def _fallback_spy():
    """The values handed to ``fallback_cells`` inside the block."""
    seen = []
    fallback = _cells.fallback_cells

    def spy(slow, *args):
        seen.extend(slow.tolist())
        return fallback(slow, *args)

    with mock.patch.object(_cells, "fallback_cells", spy):
        yield seen


def _format(values):
    """The cells' texts, and the values the fallback was handed.

    A fast-range cell holds ``-`` or NUL in column 0, then its unsigned
    text from column 1; a fallback cell holds its whole text from column
    0. Either way only NULs follow the text."""
    with _fallback_spy() as seen:
        cells = _cells.float_cells(np.array(values, dtype=np.float64))
    assert cells.shape == (len(values), _cells.CELL)
    texts = []
    for v, row in zip(values, map(bytes, cells)):
        text = row.rstrip(b"\0")
        if _fast(v):
            assert row[:1] in (b"-", b"\0") and text[1:2].isdigit()
            text = text.lstrip(b"\0")
        assert b"\0" not in text
        texts.append(text.decode("ascii"))
    return texts, seen


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


def assert_cells(values):
    texts, seen = _format(values)
    assert texts == [FLOAT_SPEC % v for v in values]
    assert _bits(seen) == _bits([v for v in values if not _fast(v)])


def _ties():
    """Doubles whose exact decimal form has 18 significant digits ending
    in 5: ``n + m / 2**k`` with n of ``18 - k`` digits and m odd, since
    ``1 / 2**k`` has k decimals. The 17-digit text rounds them half to even."""
    rng = np.random.default_rng(1971)
    ties = [123456789012345.125, -123456789012345.375]
    for k in range(3, 13):
        n = rng.integers(10 ** (17 - k), 10 ** (18 - k), size=40)
        m = 2 * rng.integers(0, 2 ** (k - 1), size=40) + 1
        ties += [float(a) + float(b) / 2**k for a, b in zip(n.tolist(), m.tolist())]
    return ties


def _neighbours(values):
    """Each value with the doubles just below and just above it."""
    return [f(v) for v in values for f in (lambda v: math.nextafter(v, -math.inf), lambda v: v,
                                             lambda v: math.nextafter(v, math.inf))]


TIES = _ties()
POWERS = _neighbours([10.0**k for k in range(-5, 18)])
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.min / 3,
            sys.float_info.max, -sys.float_info.max, 9.99999999999999999, 1e-4, -1e-4,
            1e16, 1e16 - 2, 1500.0, 0.5, -2.0, 1 / 3]


def _digits(v: float) -> tuple[str, int]:
    """The 17 significant digits of ``FLOAT_SPEC % v``, and its exponent."""
    mantissa, exp = ("%.16e" % abs(v)).split("e")
    return mantissa.replace(".", ""), int(exp)


def _trailing_zeros():
    """``{(z, e): doubles}``: doubles of exponent e whose 17-digit text ends
    in exactly z zeros, for every z in 0..16 and e in -4..15 that has one.

    Each is a decimal of ``17 - z`` significant digits, the last nonzero,
    that a double holds exactly: ``N * 10**q`` with ``5**-q`` dividing N
    when ``q < 0``, and ``N * 5**q`` below ``2**53`` when ``q > 0``.
    """
    rng = random.Random(1971)
    found = {}
    for e in range(-4, 16):
        for z in range(17):
            digits = 17 - z
            q = e - digits + 1
            step = 5 ** max(-q, 0)
            lo, hi = -(-10 ** (digits - 1) // step), (10**digits - 1) // step
            if q > 0:
                hi = min(hi, 2**53 // 5**q // step)
            values = set()
            for _ in range(4 if lo <= hi else 0):
                n = rng.randint(lo, hi) * step
                exact = Fraction(n) * Fraction(10) ** q
                if n % 10 and Fraction(float(exact)) == exact:
                    values.add(float(exact))
            if values:
                found[z, e] = sorted(values)
    return found


TRAILING_ZEROS = _trailing_zeros()
# doubles where the guess floor(log10|v|) is off by one or the 17 digits
# reach 10**17: each power of ten's three neighbours on either side, and the
# doubles nearest 17 and 18 nines at each exponent
FIX_UPS = sorted({w for e in range(-4, 17) for v in (10.0**e, float(f"9.9999999999999999e{e - 1}"),
                                                     float(f"9.99999999999999999e{e - 1}"))
                  for w in _neighbours(_neighbours([v]))})
FALLBACKS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min / 3, 1e-5,
             -1e-5, math.nextafter(1e-4, 0.0), 1e16, -1e16, 1e17, 1e300, -sys.float_info.max,
             math.inf, -math.inf, math.nan]


class TestFloatCells:
    def test_ties_round_half_to_even(self):
        # the exact tie, not a product rounded onto it, decides the digit
        for tie in TIES:
            text = "%.18g" % tie
            assert text.rstrip("0").endswith("5") and len(text.strip("-").replace(".", "")) == 18
        assert_cells(TIES)
        assert FLOAT_SPEC % 123456789012345.125 == "123456789012345.12"

    def test_both_sides_of_each_power_of_ten(self):
        assert_cells(POWERS)
        assert_cells([-v for v in POWERS])

    def test_specials(self):
        assert_cells(SPECIALS)

    def test_non_finite_values_take_the_fallback(self):
        texts, seen = _format([math.inf, -math.inf, math.nan, 2.5])
        assert texts == ["inf", "-inf", "nan", "2.5"]
        assert len(seen) == 3

    def test_both_paths_are_covered(self):
        _, seen = _format(SPECIALS)
        assert 0 < len(seen) < len(SPECIALS)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_doubles(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate([
            rng.uniform(-10.0, 10.0, 2000),
            np.exp(rng.uniform(math.log(1e-8), math.log(1e20), 2000)) * rng.choice([-1, 1], 2000),
            rng.integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64),
        ])
        assert_cells(values[np.isfinite(values)].tolist())

    def test_basis_indices_read_as_integers(self):
        # the CLI writes a basis table's k column as floats: each index of
        # every degree must keep the bytes of its integer text
        cells = _cells.float_cells(np.arange(MAX_DEGREE + 1, dtype=float))
        assert [bytes(row).replace(b"\0", b"") for row in cells] == [
            b"%d" % k for k in range(MAX_DEGREE + 1)]

    def test_empty(self):
        assert _cells.float_cells(np.array([])).shape == (0, _cells.CELL)

    def test_trailing_zero_values_cover_every_count(self):
        for (z, e), values in TRAILING_ZEROS.items():
            for v in values:
                digits, exp = _digits(v)
                assert exp == e and len(digits) - len(digits.rstrip("0")) == z
        assert {z for z, _ in TRAILING_ZEROS} == set(range(17))
        assert {e for _, e in TRAILING_ZEROS} == set(range(-4, 16))

    @pytest.mark.parametrize("seed", range(3))
    def test_every_branch_among_random_doubles(self, seed):
        # the trailing-zero values of both signs, the fix-ups and the
        # fallbacks, shuffled into 8192 doubles: each branch of the kernel
        # sees a strict subset of one call's values
        rng = np.random.default_rng(seed)
        special = [s * v for values in TRAILING_ZEROS.values() for v in values for s in (1, -1)]
        special += FIX_UPS + [-v for v in FIX_UPS] + FALLBACKS
        count = 8192 - len(special)
        assert count > 4096
        fill = np.exp(rng.uniform(math.log(1e-4), math.log(1e16), count)) * rng.choice([-1, 1], count)
        fill[: count // 8] = rng.integers(0, 2**64, count // 8, dtype=np.uint64).view(np.float64)
        values = np.concatenate([special, fill])
        rng.shuffle(values)
        values = values.tolist()
        assert_cells(values)
        fast = [v for v in values if _fast(v)]
        zeros = [len(d) - len(d.rstrip("0")) for d, _ in map(_digits, fast)]
        # all of the last 4-digit group zero, then of the last two, three, four
        for group in range(1, 5):
            assert 0 < sum(z >= 4 * group for z in zeros) < len(fast)
        off = [int(np.floor(np.log10(abs(v)))) != _digits(v)[1] for v in fast]
        assert 0 < sum(off) < len(fast)
        assert 0 < len(fast) < len(values)

    def test_every_byte_before_the_cut_is_written(self):
        # with every new array of the kernel full of 0xA5, a byte that the
        # layout leaves unwritten shows in the text
        empty, shapes = np.empty, []

        def dirty(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.view(np.uint8).fill(0xA5)
            shapes.append(out.shape)
            return out

        values = [s * v for group in TRAILING_ZEROS.values() for v in group for s in (1, -1)]
        with mock.patch.object(_cells.np, "empty", dirty):
            assert_cells(values)
        assert (len(values), _cells.CELL) in shapes

    def test_peak_memory_per_value(self):
        # one block of a curve table: t, then x, y and z, 2048 samples each
        curve = Curve(make_config(4, 6), np.random.default_rng(7).uniform(-10, 10, (6, 3)))
        ts = curve.domain.grid(2048)
        values = np.concatenate([ts, *sample_curve(curve, ts).T])
        _cells.float_cells(values[:8])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cells = _cells.float_cells(values)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert cells.shape == (8192, _cells.CELL)
        assert peak <= 100 * len(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_every_finite_double(self, values):
        assert_cells(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True), min_size=1,
                    max_size=40), st.booleans())
    def test_fast_range(self, values, negate):
        values = [-v for v in values] if negate else values
        texts, seen = _format(values)
        assert texts == [FLOAT_SPEC % v for v in values]
        assert seen == []


def _pixel_fast(v: float) -> bool:
    return abs(v) < 1e7


def _pixel_format(values):
    """The pixel cells' texts with their NULs dropped, and the values the
    fallback was handed."""
    with _fallback_spy() as seen:
        cells = _cells.pixel_cells(np.array(values, dtype=np.float64))
    assert cells.dtype == np.uint8 and len(cells) == len(values)
    assert cells.shape[1] == (12 if not seen else max(12, *(len("%.2f" % v) for v in seen)))
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in cells], seen


def assert_pixels(values):
    texts, seen = _pixel_format(values)
    assert texts == ["%.2f" % v for v in values]
    assert _bits(seen) == _bits([v for v in values if not _pixel_fast(v)])


def _half_cents():
    """Exact half-cent ties, ``v * 100 == k + 0.5`` in binary: ``n + j / 8``
    with ``j`` odd, since ``100 / 8 = 12.5``; and ``(k + 0.5) / 100``, whose
    product by 100 mostly rounds onto the half while its exact rest does
    not vanish. ``'%.2f'`` rounds the first half to even, the second by the
    rest's sign."""
    rng = np.random.default_rng(1971)
    ties = [0.125, 0.375, 2.5, 1e5 + 0.375, 9999999.875, 0.005, 0.015, 1.005, 2.675]
    for digits in range(8):
        n = rng.integers(0, 10**digits, size=30).tolist()
        j = (2 * rng.integers(0, 4, size=30) + 1).tolist()
        k = rng.integers(10 ** (digits + 1), 10 ** (digits + 2), size=30).tolist()
        ties += [a + b / 8 for a, b in zip(n, j)] + [(c + 0.5) / 100 for c in k]
    return ties


HALF_CENTS = _half_cents()
PIXEL_POWERS = _neighbours([10.0**k for k in range(-3, 8)] + [1e15, 1e300])
PIXEL_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min / 3,
                  -1e-3, -0.004999, -0.005, 0.004999, 1e7, -1e7, math.nextafter(1e7, 0.0),
                  -math.nextafter(1e7, 0.0), 9999999.995, 9999999.994999999, 1e15, 1e300,
                  -1e300, sys.float_info.max, 320.0, 639.995, -32.0]


class TestPixelCells:
    def test_half_cent_ties(self):
        assert sum(v * 100 % 1 == 0.5 for v in HALF_CENTS) > len(HALF_CENTS) // 2
        assert_pixels(HALF_CENTS)
        assert_pixels(_neighbours(HALF_CENTS))
        assert_pixels([-v for v in _neighbours(HALF_CENTS)])
        assert ["%.2f" % v for v in (0.125, 0.375, 0.005)] == ["0.12", "0.38", "0.01"]

    def test_negative_zero_and_tiny_values(self):
        texts, _ = _pixel_format([-0.0, -1e-3, -5e-324, 0.0, 5e-324, sys.float_info.min])
        assert texts == ["-0.00", "-0.00", "-0.00", "0.00", "0.00", "0.00"]

    def test_both_sides_of_each_power_of_ten(self):
        assert_pixels(PIXEL_POWERS)
        assert_pixels([-v for v in PIXEL_POWERS])

    def test_specials(self):
        assert_pixels(PIXEL_SPECIALS)

    def test_fallback_sees_exactly_the_out_of_range_values(self):
        values = [1.5, 1e7, -2.25, math.inf, -1e300, math.nan, math.nextafter(1e7, 0.0)]
        texts, seen = _pixel_format(values)
        assert texts == ["1.50", "10000000.00", "-2.25", "inf", "%.2f" % -1e300, "nan",
                         "10000000.00"]
        assert _bits(seen) == _bits([1e7, math.inf, -1e300, math.nan])

    def test_fast_range_keeps_twelve_bytes(self):
        texts, seen = _pixel_format([-math.nextafter(1e7, 0.0), 0.0, 123.456])
        assert seen == []
        assert texts == ["-10000000.00", "0.00", "123.46"]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_doubles(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate([
            rng.uniform(-100.0, 800.0, 3000),
            np.round(rng.uniform(-100.0, 800.0, 3000), 3),
            np.exp(rng.uniform(math.log(1e-8), math.log(1e9), 2000)) * rng.choice([-1, 1], 2000),
            rng.integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64),
        ])
        assert_pixels(values[np.isfinite(values)].tolist())

    def test_empty(self):
        assert _cells.pixel_cells(np.array([])).shape == (0, 12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_every_finite_double(self, values):
        assert_pixels(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-1e7, max_value=1e7, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=40))
    def test_fast_range(self, values):
        texts, seen = _pixel_format(values)
        assert texts == ["%.2f" % v for v in values]
        assert seen == []

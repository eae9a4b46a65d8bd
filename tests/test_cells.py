"""The exact ``%.17g`` cell kernel against ``FLOAT_SPEC % v``.

Every cell must hold the bytes of ``FLOAT_SPEC % v``, and every value must
take the path its magnitude calls for: the numpy fast path in
``1e-4 <= |v| < 1e16``, ``fallback_cells`` everywhere else.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftknot import _cells
from shiftknot.basis import MAX_DEGREE
from shiftknot.files import FLOAT_SPEC


def _fast(v: float) -> bool:
    return 1e-4 <= abs(v) < 1e16


def _format(values):
    """The cells' texts, and the values the fallback was handed."""
    seen = []
    fallback = _cells.fallback_cells

    def spy(slow):
        seen.extend(slow.tolist())
        return fallback(slow)

    with mock.patch.object(_cells, "fallback_cells", spy):
        cells = _cells.float_cells(np.array(values, dtype=np.float64))
    assert cells.shape == (len(values), _cells.CELL)
    texts = [bytes(row).rstrip(b"\0") for row in cells]
    # left-justified: the NUL padding only ever trails the text
    assert all(b"\0" not in text for text in texts)
    return [text.decode("ascii") for text in texts], seen


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


TIES = _ties()
POWERS = [f(10.0**k) for k in range(-5, 18)
          for f in (lambda v: math.nextafter(v, 0.0), lambda v: v,
                    lambda v: math.nextafter(v, math.inf))]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.min / 3,
            sys.float_info.max, -sys.float_info.max, 9.99999999999999999, 1e-4, -1e-4,
            1e16, 1e16 - 2, 1500.0, 0.5, -2.0, 1 / 3]


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
        assert [bytes(row).rstrip(b"\0") for row in cells] == [
            b"%d" % k for k in range(MAX_DEGREE + 1)]

    def test_empty(self):
        assert _cells.float_cells(np.array([])).shape == (0, _cells.CELL)

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

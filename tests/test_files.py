import json

import numpy as np
import pytest

from shiftknot import files
from shiftknot import (
    Curve,
    FileFormatError,
    SurfacePatch,
    curve_to_json,
    format_float,
    load_curve,
    load_patch,
    make_config,
    parse_curve,
    parse_patch,
    patch_to_json,
    save_curve,
    save_patch,
)

from _helpers import assert_bits_equal, random_curve, random_patch


class TestFloatFormat:
    def test_exact_roundtrip_for_awkward_doubles(self):
        for x in [0.1, 1 / 3, 2 / 3, np.pi, 1e-300, 6.02e23, -7.297352566e-3]:
            assert float(format_float(x)) == x

    def test_integers_stay_short(self):
        assert format_float(2.0) == "2"
        assert format_float(-13.0) == "-13"


class TestCurveRoundTrip:
    def test_roundtrip_preserves_everything(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            c = random_curve(rng)
            back = parse_curve(curve_to_json(c))
            assert back.config == c.config
            np.testing.assert_array_equal(back.control, c.control)

    def test_json_is_valid_and_deterministic(self):
        c = Curve(make_config(4, 6), [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]])
        text = curve_to_json(c)
        assert text == curve_to_json(c)
        data = json.loads(text)
        assert data["degree"] == 2
        assert data["alpha"] == 4.0

    def test_file_io(self, tmp_path):
        c = Curve(make_config(1.5, 3.25), [[0.1, 0.2], [1 / 3, 2 / 3]])
        path = tmp_path / "curve.json"
        save_curve(c, path)
        back = load_curve(path)
        np.testing.assert_array_equal(back.control, c.control)
        assert back.config == c.config


class TestPatchRoundTrip:
    def test_roundtrip_preserves_everything(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = random_patch(rng)
            back = parse_patch(patch_to_json(p))
            assert back.config == p.config
            np.testing.assert_array_equal(back.net, p.net)

    def test_file_io(self, tmp_path):
        p = SurfacePatch(make_config(0, 2), np.arange(24, dtype=float).reshape(2, 4, 3))
        path = tmp_path / "patch.json"
        save_patch(p, path)
        back = load_patch(path)
        np.testing.assert_array_equal(back.net, p.net)


def _assert_same_file(back, original):
    """Equal bit for bit: the shift pair, the domains and the points."""
    got = [back.config.alpha, back.config.beta]
    want = [original.config.alpha, original.config.beta]
    if isinstance(original, Curve):
        got += [back.domain.lo, back.domain.hi, *back.control.ravel()]
        want += [original.domain.lo, original.domain.hi, *original.control.ravel()]
    else:
        doms = ("domain_u", "domain_v")
        got += [x for d in doms for x in (getattr(back, d).lo, getattr(back, d).hi)]
        want += [x for d in doms for x in (getattr(original, d).lo, getattr(original, d).hi)]
        got += [*back.net.ravel()]
        want += [*original.net.ravel()]
    assert_bits_equal(np.array(got), np.array(want))


# every spelling of FLOAT_SPEC that json.loads could take for another value:
# "-0", the subnormal "4.9406564584124654e-324", the exponents of 1e-05 and
# 1e300, and the whole number "10000000000000000"
_SPELLINGS = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, -1e16, 1e300, 2.0, -3.0]


class TestSignedZeroRoundTrip:
    @pytest.mark.parametrize("alpha, beta", [(-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 5.0)])
    def test_curve(self, alpha, beta):
        c = Curve(make_config(alpha, beta), [[-0.0, 1.0], [2.0, -0.0], [0.0, -0.0]])
        text = curve_to_json(c)
        assert text.startswith(f'{{"alpha": {format_float(alpha)}, "beta": {format_float(beta)}')
        _assert_same_file(parse_curve(text), c)

    @pytest.mark.parametrize("alpha, beta", [(-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 5.0)])
    def test_patch(self, alpha, beta):
        net = np.array([[[-0.0, 0.0, 1.0], [2.0, -0.0, -0.0]],
                        [[0.0, -0.0, 3.0], [-0.0, 4.0, 0.0]]])
        p = SurfacePatch(make_config(alpha, beta), net)
        _assert_same_file(parse_patch(patch_to_json(p)), p)

    def test_file_io_keeps_the_low_end(self, tmp_path):
        c = Curve(make_config(-0.0, 1.0), [[-0.0], [1.0]])
        save_curve(c, tmp_path / "curve.json")
        back = load_curve(tmp_path / "curve.json")
        assert np.copysign(1.0, back.domain.lo) == -1.0
        _assert_same_file(back, c)

    def test_every_spelling_of_the_writer(self):
        c = Curve(make_config(-0.0, 1e16), np.array(_SPELLINGS).reshape(-1, 2))
        _assert_same_file(parse_curve(curve_to_json(c)), c)
        p = SurfacePatch(make_config(5e-324, 1e300), np.array(_SPELLINGS[:8]).reshape(2, 2, 2))
        _assert_same_file(parse_patch(patch_to_json(p)), p)

    def test_the_writer_on_ints_tuples_and_numpy_rows(self):
        value = {"n": 7, "pair": (-0.0, 1e16), "rows": np.array([_SPELLINGS[:5], _SPELLINGS[5:]]),
                 "name": "direct"}
        text = files._json_text(value)
        assert text == (
            '{"n": 7, "pair": [-0, 10000000000000000], "rows": [[-0, 0, 4.9406564584124654e-324,'
            ' -4.9406564584124654e-324, 1.0000000000000001e-05], [10000000000000000,'
            ' -10000000000000000, 1.0000000000000001e+300, 2, -3]], "name": "direct"}'
        )
        back = files._load_dict(text)
        assert back["n"] == 7 and type(back["n"]) is int and back["name"] == "direct"
        assert_bits_equal(np.array(back["pair"]), np.array(value["pair"]))
        assert_bits_equal(np.array(back["rows"]), value["rows"])


class TestMalformedInput:
    def test_not_json(self):
        with pytest.raises(FileFormatError, match="not valid JSON"):
            parse_curve("{nope")

    def test_integer_past_the_digit_limit(self):
        with pytest.raises(FileFormatError, match="not valid JSON"):
            parse_curve('{"alpha": 0, "beta": 0, "degree": 1, "control": [[0, 1%s], [2, 3]]}'
                        % ("0" * 5000))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_json_constants_are_not_numbers(self, token):
        # reported once, as not valid JSON, wherever the token stands
        for text in (f'{{"alpha": {token}, "beta": 0, "degree": 1, "control": [[0], [1]]}}',
                     f'{{"alpha": 0, "beta": 0, "degree": 1, "control": [[0], [{token}]]}}'):
            with pytest.raises(FileFormatError) as info:
                parse_curve(text)
            assert str(info.value) == f"not valid JSON: {token} is not a JSON number"

    def test_top_level_not_object(self):
        with pytest.raises(FileFormatError, match="object"):
            parse_curve("[1, 2, 3]")

    def test_missing_field(self):
        with pytest.raises(FileFormatError, match="missing field"):
            parse_curve('{"alpha": 0, "beta": 0, "control": [[0, 0], [1, 1]]}')

    def test_wrong_field_type(self):
        with pytest.raises(FileFormatError, match="number"):
            parse_curve('{"alpha": "zero", "beta": 0, "degree": 1, "control": [[0, 0], [1, 1]]}')
        with pytest.raises(FileFormatError, match="integer"):
            parse_curve('{"alpha": 0, "beta": 0, "degree": 1.5, "control": [[0, 0], [1, 1]]}')
        # the literal -0 is the float -0.0, which is no degree
        with pytest.raises(FileFormatError, match="must be an integer"):
            parse_curve('{"alpha": 0, "beta": 0, "degree": -0, "control": [[0, 0], [1, 1]]}')

    def test_degree_count_mismatch(self):
        with pytest.raises(FileFormatError, match="control points"):
            parse_curve('{"alpha": 0, "beta": 0, "degree": 3, "control": [[0, 0], [1, 1]]}')

    def test_patch_degrees_shape(self):
        with pytest.raises(FileFormatError, match="pair of integers"):
            parse_patch('{"alpha": 0, "beta": 0, "degrees": [1], "control": []}')
        with pytest.raises(FileFormatError, match="control net"):
            parse_patch(
                '{"alpha": 0, "beta": 0, "degrees": [1, 1],'
                ' "control": [[[0, 0, 0], [0, 1, 0]]]}'
            )

    @pytest.mark.parametrize("coordinate", ["true", "false", "null", '"1"', "[1]"])
    def test_non_number_coordinate(self, coordinate):
        with pytest.raises(FileFormatError, match="coordinates must be numbers"):
            parse_curve(
                f'{{"alpha": 0, "beta": 0, "degree": 1, "control": [[{coordinate}, 1], [2, 3]]}}'
            )
        with pytest.raises(FileFormatError, match="coordinates must be numbers"):
            parse_patch(
                '{"alpha": 0, "beta": 0, "degrees": [1, 1], "control":'
                f' [[[0, 0, {coordinate}], [0, 1, 0]], [[1, 0, 0], [1, 1, 1]]]}}'
            )

    def test_ragged_points(self):
        with pytest.raises(FileFormatError, match="same number of coordinates, got 1, 2"):
            parse_curve('{"alpha": 0, "beta": 0, "degree": 1, "control": [[1, 2], [3]]}')
        with pytest.raises(FileFormatError, match="same number of coordinates, got 2, 3"):
            parse_patch('{"alpha": 0, "beta": 0, "degrees": [1, 1],'
                        ' "control": [[[0, 0, 0], [0, 1, 0]], [[1, 0], [1, 1, 1]]]}')

    def test_patch_point_not_a_list(self):
        with pytest.raises(FileFormatError, match="list of point rows"):
            parse_patch('{"alpha": 0, "beta": 0, "degrees": [1, 1], "control": [[0, 1], [2, 3]]}')

    def test_invalid_shift_pair_surfaces_as_geometry_error(self):
        from shiftknot import GeometryError

        with pytest.raises(GeometryError):
            parse_curve('{"alpha": 5, "beta": 1, "degree": 1, "control": [[0, 0], [1, 1]]}')

"""Curve and patch JSON files.

Curves:   {"alpha": a, "beta": b, "degree": n, "control": [[x, y], ...]}
Patches:  {"alpha": a, "beta": b, "degrees": [m, n], "control": [[[x, y, z], ...], ...]}

Numbers are written with 17 significant digits so every double round-trips
exactly; output is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

from .basis import make_config
from .curve import Curve
from .surface import SurfacePatch

__all__ = [
    "FileFormatError",
    "format_float",
    "curve_to_json",
    "patch_to_json",
    "parse_curve",
    "parse_patch",
    "load_curve",
    "load_patch",
    "save_curve",
    "save_patch",
]


# printf spec of every written float: 17 significant digits round-trip a double
FLOAT_SPEC = "%.17g"


class FileFormatError(ValueError):
    """The file is not valid JSON or does not match the expected schema."""


def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; round-trips exactly."""
    return FLOAT_SPEC % float(x)


def _points_json(points) -> str:
    rows = ", ".join("[" + ", ".join(format_float(c) for c in p) + "]" for p in points)
    return "[" + rows + "]"


def curve_to_json(curve: Curve) -> str:
    return (
        "{"
        + f'"alpha": {format_float(curve.config.alpha)}, '
        + f'"beta": {format_float(curve.config.beta)}, '
        + f'"degree": {curve.degree}, '
        + f'"control": {_points_json(curve.control)}'
        + "}\n"
    )


def patch_to_json(patch: SurfacePatch) -> str:
    m, n = patch.degrees
    rows = ", ".join(_points_json(row) for row in patch.net)
    return (
        "{"
        + f'"alpha": {format_float(patch.config.alpha)}, '
        + f'"beta": {format_float(patch.config.beta)}, '
        + f'"degrees": [{m}, {n}], '
        + f'"control": [{rows}]'
        + "}\n"
    )


def _load_dict(text: str) -> dict:
    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past int's digit limit
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError("not valid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise FileFormatError("top-level JSON value must be an object")
    return data


def _field(data: dict, name: str):
    if name not in data:
        raise FileFormatError(f"missing field {name!r}")
    return data[name]


def _number(data: dict, name: str) -> int | float:
    # no float() here: make_config reports an integer beyond float range
    value = _field(data, name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"field {name!r} must be a number")
    return value


def _check_coordinates(points) -> None:
    """Every coordinate a number, every point of the same length."""
    sizes = set()
    for p in points:
        sizes.add(len(p))
        for c in p:
            # bool is an int to Python but not a number to the schema
            if isinstance(c, bool) or not isinstance(c, (int, float)):
                raise FileFormatError(f"control coordinates must be numbers, got {json.dumps(c)}")
    if len(sizes) > 1:
        raise FileFormatError("control points must all have the same number of coordinates,"
                              f" got {', '.join(map(str, sorted(sizes)))}")


def parse_curve(text: str) -> Curve:
    data = _load_dict(text)
    alpha = _number(data, "alpha")
    beta = _number(data, "beta")
    degree = _field(data, "degree")
    control = _field(data, "control")
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise FileFormatError("field 'degree' must be an integer")
    if not isinstance(control, list) or not all(isinstance(p, list) for p in control):
        raise FileFormatError("field 'control' must be a list of points")
    _check_coordinates(control)
    if len(control) != degree + 1:
        raise FileFormatError(
            f"degree {degree} needs {degree + 1} control points, file has {len(control)}"
        )
    return Curve(make_config(alpha, beta), control)


def parse_patch(text: str) -> SurfacePatch:
    data = _load_dict(text)
    alpha = _number(data, "alpha")
    beta = _number(data, "beta")
    degrees = _field(data, "degrees")
    control = _field(data, "control")
    if (
        not isinstance(degrees, list)
        or len(degrees) != 2
        or any(isinstance(d, bool) or not isinstance(d, int) for d in degrees)
    ):
        raise FileFormatError("field 'degrees' must be a pair of integers")
    if not isinstance(control, list) or not all(
        isinstance(r, list) and all(isinstance(p, list) for p in r) for r in control
    ):
        raise FileFormatError("field 'control' must be a list of point rows")
    _check_coordinates(p for row in control for p in row)
    m, n = degrees
    if len(control) != m + 1 or any(len(row) != n + 1 for row in control):
        raise FileFormatError(
            f"degrees ({m}, {n}) need a {m + 1} x {n + 1} control net"
        )
    return SurfacePatch(make_config(alpha, beta), control)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not a UTF-8 JSON file: {exc}") from exc


def load_curve(path) -> Curve:
    return parse_curve(_read_text(path))


def load_patch(path) -> SurfacePatch:
    return parse_patch(_read_text(path))


def save_curve(curve: Curve, path) -> None:
    Path(path).write_text(curve_to_json(curve), encoding="utf-8")


def save_patch(patch: SurfacePatch, path) -> None:
    Path(path).write_text(patch_to_json(patch), encoding="utf-8")

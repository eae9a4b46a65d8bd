"""Output checks: reference agreement, the basis properties, and parsers
that read the CLI's CSV, JSON and SVG back.

Every check raises :class:`CheckError` on a wrong output and returns
nothing otherwise. None of them reads a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import numpy as np


SVG_WIDTH, SVG_HEIGHT = 640, 480
# `:.2f` pixel coordinates are off by at most half a unit in the last place.
SVG_TOL = 0.006


class CheckError(AssertionError):
    """An output of the program failed a check."""


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def close(got, want, tol: float, what: str) -> None:
    err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))))
    if not err <= tol:
        raise CheckError(f"{what}: error {err:.3g} exceeds bound {tol:.3g}")


def close_exact(got, want_exact, tol: float, what: str) -> None:
    """Compare floats with exact rationals, without rounding the error."""
    err = max(abs(Fraction(float(g)) - w) for g, w in zip(got, want_exact))
    if not err <= Fraction(tol):
        raise CheckError(f"{what}: exact error {float(err):.3g} exceeds bound {tol:.3g}")


def equal(got, want, what: str) -> None:
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        raise CheckError(f"{what}: values differ from the exact expectation")


def basis_rows(rows, tol: float, what: str) -> None:
    """Nonnegativity, partition of unity, and unit rows at the two ends
    (``rows`` must start at the domain's low end and stop at its high end)."""
    if not np.all(rows >= 0.0):
        raise CheckError(f"{what}: negative basis value")
    close(rows.sum(axis=1), 1.0, tol, f"{what}: partition of unity")
    count = rows.shape[1]
    equal(rows[0], np.eye(count)[0], f"{what}: row at the low end")
    equal(rows[-1], np.eye(count)[-1], f"{what}: row at the high end")


def in_box(points, control, tol: float, what: str) -> None:
    """Convex-hull containment, tested on the hull's bounding box."""
    flat = np.asarray(control, dtype=np.float64).reshape(-1, np.shape(control)[-1])
    pts = np.asarray(points).reshape(-1, flat.shape[1])
    if np.any(pts < flat.min(axis=0) - tol) or np.any(pts > flat.max(axis=0) + tol):
        raise CheckError(f"{what}: point outside the convex hull of the control points")


def parse_csv(text: str, header: str, rows: int) -> np.ndarray:
    """Parse CSV output into a float array of shape ``(rows, fields)``."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError("CSV output must end with a newline")
    if lines[0] != header:
        raise CheckError(f"CSV header {lines[0]!r}, expected {header!r}")
    body = lines[1:-1]
    if len(body) != rows:
        raise CheckError(f"CSV has {len(body)} rows, expected {rows}")
    commas = header.count(",")
    if any(line.count(",") != commas for line in body):
        raise CheckError("CSV row with the wrong number of fields")
    try:
        values = np.array(list(map(float, ",".join(body).split(","))))
    except ValueError as exc:
        raise CheckError(f"CSV field is not a number: {exc}") from exc
    return values.reshape(rows, commas + 1)


def parse_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckError("JSON output must be an object")
    return doc


def json_table(doc, keys: tuple[str, ...], rows: int) -> np.ndarray:
    samples = doc.get("samples")
    if not isinstance(samples, list) or len(samples) != rows:
        raise CheckError(f"JSON output needs {rows} samples")
    try:
        return np.array([[s[k] for k in keys] for s in samples], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"JSON sample without the fields {keys}: {exc}") from exc


_ATTR = re.compile(r'data-([a-z-]+)="([^"]*)"')
_POINTS = re.compile(r'points="([^"]*)"')


def parse_svg(text: str, polylines: int, points: int) -> tuple[dict, list]:
    """Parse an SVG plot: its ``data-*`` attributes and its polylines, each
    an array of pixel coordinates inside the viewport."""
    lines = text.split("\n")
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}"'
    if not lines[0].startswith(head) or lines[-2:] != ["</svg>", ""]:
        raise CheckError("SVG output lacks its <svg> element")
    attrs = {k: [float(v) for v in vals.split()] for k, vals in _ATTR.findall(lines[0])}
    polys = []
    for line in lines[1:-2]:
        if line.startswith("<polyline"):
            match = _POINTS.search(line)
            if match is None:
                raise CheckError("polyline without points")
            xy = np.array(list(map(float, match.group(1).replace(" ", ",").split(","))))
            polys.append(xy.reshape(-1, 2))
    if len(polys) != polylines:
        raise CheckError(f"SVG has {len(polys)} polylines, expected {polylines}")
    for poly in polys:
        if len(poly) != points:
            raise CheckError(f"SVG polyline has {len(poly)} points, expected {points}")
        if np.any(poly < 0.0) or np.any(poly[:, 0] > SVG_WIDTH) or np.any(poly[:, 1] > SVG_HEIGHT):
            raise CheckError("SVG point outside the viewport")
    return attrs, polys


def svg_map(bbox):
    """Data-to-pixel map of a plot whose data extent is ``bbox``: the
    extent padded by 5% on each side fills the 640x480 viewport, y up."""
    xmin, xmax, ymin, ymax = bbox
    spanx = (xmax - xmin) or 1.0
    spany = (ymax - ymin) or 1.0
    xmin, xmax = xmin - 0.05 * spanx, xmax + 0.05 * spanx
    ymin, ymax = ymin - 0.05 * spany, ymax + 0.05 * spany

    def to_px(x, y):
        return (
            (x - xmin) * SVG_WIDTH / (xmax - xmin),
            SVG_HEIGHT - (y - ymin) * SVG_HEIGHT / (ymax - ymin),
        )

    return to_px

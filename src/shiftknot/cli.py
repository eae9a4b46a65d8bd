"""Command-line sampler for shifted-knot Bezier geometry.

Subcommands: ``basis``, ``curve-eval``, ``curve-sample``, ``elevate``,
``surface-sample``. Output is CSV, JSON, or SVG and is byte-deterministic
for identical invocations.

Exit codes: 0 on success, 1 for domain or constraint violations, 2 for
unreadable or malformed input (including bad command lines, which argparse
also reports with status 2).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .basis import basis_rows, domain, make_config
from .curve import (
    elevate_many,
    eval_decasteljau,
    eval_direct,
    eval_matrix_form,
    sample_curve,
)
from .errors import ConstraintError, DomainError, GeometryError
from .files import (
    FLOAT_SPEC,
    FileFormatError,
    curve_to_json,
    format_float,
    load_curve,
    load_patch,
)
from .surface import sample_patch

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


def _coord_names(dim: int) -> list[str]:
    if dim > 3:
        raise ConstraintError(f"command output supports at most 3 coordinates, got {dim}")
    return ["x", "y", "z"][:dim]


def _sample_grid(dom, samples: int, range_pair, clamp: bool) -> np.ndarray:
    if samples < 2:
        raise ConstraintError(f"--samples must be at least 2, got {samples}")
    lo, hi = dom.lo, dom.hi
    if range_pair is not None:
        rlo, rhi = float(range_pair[0]), float(range_pair[1])
        if not rlo < rhi:
            raise ConstraintError(f"--range start {rlo} must be below end {rhi}")
        if clamp:
            rlo, rhi = dom.clamp(rlo), dom.clamp(rhi)
            if not rlo < rhi:
                raise DomainError("--range does not intersect the valid domain")
        else:
            rlo, rhi = dom.admit(rlo), dom.admit(rhi)
        lo, hi = rlo, rhi
    return np.linspace(lo, hi, samples)


def _json_value(value) -> str:
    if isinstance(value, tuple):
        return "[" + ", ".join(map(format_float, value)) + "]"
    return str(value) if isinstance(value, int) else format_float(value)


def _table(fmt: str, fields, columns, meta=()) -> str:
    """One row per entry of the equal-length 1-D ``columns``, each value
    written by the printf spec that ``fields`` pairs with its column name.

    CSV is a header line then the rows; JSON is an object holding the
    ``meta`` (name, value) entries, then the rows as ``"samples"``.
    """
    if fmt == "csv":
        head = ",".join(name for name, _ in fields) + "\n"
        row = ",".join(spec for _, spec in fields)
        sep, tail = "\n", "\n"
    else:
        head = "{\n" + "".join(f' "{k}": {_json_value(v)},\n' for k, v in meta)
        head += ' "samples": [\n  '
        row = "{" + ", ".join(f'"{name}": {spec}' for name, spec in fields) + "}"
        sep, tail = ",\n  ", "\n ]\n}\n"
    return head + sep.join(row % r for r in zip(*(c.tolist() for c in columns))) + tail


def _svg_render(series, bbox, *, annotations=(), attrs="") -> str:
    """Fixed 640x480 viewport; ``series`` is (points, stroke) pairs in data
    coordinates, ``bbox`` the unpadded data extent."""
    width, height = 640, 480
    xmin, xmax, ymin, ymax = bbox
    spanx = (xmax - xmin) or 1.0
    spany = (ymax - ymin) or 1.0
    xmin -= 0.05 * spanx
    xmax += 0.05 * spanx
    ymin -= 0.05 * spany
    ymax += 0.05 * spany
    sx = width / (xmax - xmin)
    sy = height / (ymax - ymin)

    def px(x):
        return (x - xmin) * sx

    def py(y):
        return height - (y - ymin) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}"{attrs}>'
    ]
    for x, label in annotations:
        tick = px(x)
        parts.append(
            f'<line x1="{tick:.2f}" y1="{height - 10}" x2="{tick:.2f}" y2="{height}"'
            ' stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{tick:.2f}" y="{height - 14}" font-size="11"'
            f' font-family="monospace" text-anchor="middle">{label}</text>'
        )
    for points, stroke in series:
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
        parts.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5" points="{coords}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit(text: str, output) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_basis(args) -> str:
    config = make_config(args.alpha, args.beta)
    dom = domain(config, args.degree)
    ts = _sample_grid(dom, args.samples, args.range, args.clamp)
    rows = basis_rows(config, args.degree, ts, clamp=True)
    count = args.degree + 1
    if args.format != "svg":
        fields = [("t", FLOAT_SPEC), ("k", "%d"), ("value", FLOAT_SPEC)]
        columns = (np.repeat(ts, count), np.tile(np.arange(count), len(ts)), rows.ravel())
        meta = [("alpha", config.alpha), ("beta", config.beta), ("degree", args.degree),
                ("domain", (dom.lo, dom.hi))]
        return _table(args.format, fields, columns, meta)
    series = [
        (list(zip(ts, rows[:, k])), _PALETTE[k % len(_PALETTE)]) for k in range(count)
    ]
    bbox = (float(ts[0]), float(ts[-1]), min(0.0, float(rows.min())), max(1.0, float(rows.max())))
    attrs = f' data-domain="{format_float(dom.lo)} {format_float(dom.hi)}"'
    annotations = [(dom.lo, format(dom.lo, ".6g")), (dom.hi, format(dom.hi, ".6g"))]
    return _svg_render(series, bbox, annotations=annotations, attrs=attrs)


_EVALUATORS = {
    "direct": eval_direct,
    "decasteljau": eval_decasteljau,
    "matrix": eval_matrix_form,
}


def cmd_curve_eval(args) -> str:
    curve = load_curve(args.file)
    _coord_names(curve.dimension)
    point = _EVALUATORS[args.algorithm](curve, args.t, clamp=args.clamp)
    coords = ", ".join(format_float(c) for c in point)
    t = format_float(args.t)
    return f'{{"t": {t}, "algorithm": "{args.algorithm}", "point": [{coords}]}}\n'


def cmd_curve_sample(args) -> str:
    curve = load_curve(args.file)
    names = _coord_names(curve.dimension)
    dom = curve.domain
    ts = _sample_grid(dom, args.samples, args.range, args.clamp)
    points = sample_curve(curve, ts, algorithm=args.algorithm, clamp=True)
    if args.format != "svg":
        fields = [(name, FLOAT_SPEC) for name in ("t", *names)]
        return _table(args.format, fields, (ts, *points.T), [("domain", (dom.lo, dom.hi))])
    if curve.dimension == 1:
        pts = list(zip(ts, points[:, 0]))
        bbox = (
            float(ts[0]),
            float(ts[-1]),
            float(curve.control[:, 0].min()),
            float(curve.control[:, 0].max()),
        )
    else:
        pts = [(p[0], p[1]) for p in points]
        ctrl = curve.control
        bbox = (
            float(ctrl[:, 0].min()),
            float(ctrl[:, 0].max()),
            float(ctrl[:, 1].min()),
            float(ctrl[:, 1].max()),
        )
    attrs = f' data-domain="{format_float(dom.lo)} {format_float(dom.hi)}"'
    return _svg_render([(pts, _PALETTE[0])], bbox, attrs=attrs)


def cmd_elevate(args) -> str:
    curve = load_curve(args.file)
    return curve_to_json(elevate_many(curve, args.levels))


def cmd_surface_sample(args) -> str:
    patch = load_patch(args.file)
    names = _coord_names(patch.dimension)
    dom_u, dom_v = patch.domain_u, patch.domain_v
    us = _sample_grid(dom_u, args.samples, None, False)
    vs = _sample_grid(dom_v, args.samples, None, False)
    grid = sample_patch(patch, us, vs, clamp=True)
    if args.format != "svg":
        columns = (np.repeat(us, len(vs)), np.tile(vs, len(us)),
                   *grid.reshape(-1, patch.dimension).T)
        fields = [(name, FLOAT_SPEC) for name in ("u", "v", *names)]
        meta = [("domain_u", (dom_u.lo, dom_u.hi)), ("domain_v", (dom_v.lo, dom_v.hi))]
        return _table(args.format, fields, columns, meta)
    if patch.dimension < 2:
        raise ConstraintError("SVG wireframes need 2 or 3 coordinates")
    if patch.dimension == 2:
        keep = (0, 1)
    else:
        dropped = {"x": 0, "y": 1, "z": 2}[args.drop_axis]
        keep = tuple(c for c in range(3) if c != dropped)
    series = []
    for i in range(len(us)):
        series.append(([(p[keep[0]], p[keep[1]]) for p in grid[i]], _PALETTE[0]))
    for j in range(len(vs)):
        series.append(([(p[keep[0]], p[keep[1]]) for p in grid[:, j]], _PALETTE[1]))
    flat = patch.net.reshape(-1, patch.dimension)
    bbox = (
        float(flat[:, keep[0]].min()),
        float(flat[:, keep[0]].max()),
        float(flat[:, keep[1]].min()),
        float(flat[:, keep[1]].max()),
    )
    attrs = (
        f' data-domain-u="{format_float(dom_u.lo)} {format_float(dom_u.hi)}"'
        f' data-domain-v="{format_float(dom_v.lo)} {format_float(dom_v.hi)}"'
    )
    return _svg_render(series, bbox, attrs=attrs)


# ---------------------------------------------------------------------------
# parser


def _add_format(parser, *, default_samples: int, with_range: bool = True) -> None:
    parser.add_argument("--samples", type=int, default=default_samples,
                        help=f"sample count (default {default_samples})")
    parser.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    parser.add_argument("--clamp", action="store_true",
                        help="pull out-of-domain parameters to the nearest endpoint")
    parser.add_argument("--output", help="write to this file instead of stdout")
    if with_range:
        parser.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"),
                            help="custom sample interval (must lie in the domain unless --clamp)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftknot",
        description="Sample shifted-knot Bernstein bases, Bezier curves and patches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="sample every basis function of one degree")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--degree", type=int, required=True)
    _add_format(p, default_samples=200)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("curve-eval", help="evaluate a curve file at one parameter")
    p.add_argument("file", help="curve JSON file")
    p.add_argument("t", type=float)
    p.add_argument("--algorithm", choices=tuple(_EVALUATORS), default="direct")
    p.add_argument("--clamp", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_curve_eval)

    p = sub.add_parser("curve-sample", help="sample a curve file over its domain")
    p.add_argument("file", help="curve JSON file")
    p.add_argument("--algorithm", choices=tuple(_EVALUATORS), default="direct")
    _add_format(p, default_samples=200)
    p.set_defaults(func=cmd_curve_sample)

    p = sub.add_parser("elevate", help="degree-elevate a curve file")
    p.add_argument("file", help="curve JSON file")
    p.add_argument("--levels", type=int, default=1, help="how many times to elevate")
    p.add_argument("--output")
    p.set_defaults(func=cmd_elevate)

    p = sub.add_parser("surface-sample", help="sample a patch file over its domains")
    p.add_argument("file", help="patch JSON file")
    p.add_argument("--drop-axis", choices=("x", "y", "z"), default="z",
                   help="axis removed by the SVG orthographic projection")
    _add_format(p, default_samples=20, with_range=False)
    p.set_defaults(func=cmd_surface_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        _emit(text, getattr(args, "output", None))
        return 0
    except FileFormatError as exc:
        print(f"shiftknot: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"shiftknot: error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"shiftknot: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

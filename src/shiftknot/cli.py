"""Command-line sampler for shifted-knot Bezier geometry.

Subcommands: ``basis``, ``curve-eval``, ``curve-sample``, ``elevate``,
``surface-sample``. Output is CSV, JSON, or SVG and is byte-deterministic
for identical invocations. Every table and SVG polyline is text from one
grid writer, :func:`_rows`, and every other JSON value from
``files._json_text``; each command returns its output as blocks of bytes,
which :func:`_emit` writes as they are to the destination.

Exit codes: 0 on success, 1 for domain or constraint violations, 2 for
unreadable or malformed input (including bad command lines, which argparse
also reports with status 2) and for output that cannot be written whole.
"""

from __future__ import annotations

import argparse
import copy
import functools
import math
import os
import sys

import numpy as np

from .basis import _grid, basis_rows, domain, make_config
from .curve import (
    elevate_many,
    eval_decasteljau,
    eval_direct,
    eval_matrix_form,
    sample_curve,
)
from .errors import ConstraintError, DomainError, GeometryError
from .files import (
    FileFormatError,
    _json_text,
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
    lo, hi = dom.lo, dom.hi
    if range_pair is not None:
        rlo, rhi = float(range_pair[0]), float(range_pair[1])
        for bound in (rlo, rhi):
            if not math.isfinite(bound):
                raise DomainError(f"parameter must be finite, got {bound!r}")
        if not rlo < rhi:
            raise ConstraintError(f"--range start {rlo} must be below end {rhi}")
        lo, hi = dom.admit(rlo, clamp), dom.admit(rhi, clamp)
        if not lo < hi:
            raise DomainError("--range does not intersect the valid domain")
    return _grid(lo, hi, samples)


# ---------------------------------------------------------------------------
# output: every table and polyline as rows of bytes from one grid writer

# Table rows per block, in whole first-axis lines of the grid. A block
# bounds the cell kernel's temporaries, and each kernel call costs a fixed
# time besides its values: 2048 rows of a 4-column table measured faster
# than 1024, and 4096 rows held more memory for a small further gain. The
# kernels, shiftknot._cells, are imported by the first table or SVG
# written: the library routes never compile them.
_BLOCK_ROWS = 2048


def _rows(kernel, literals, columns) -> np.ndarray:
    """The text of a grid as a ``uint8`` array shaped like the grid plus
    one byte axis: ``columns`` broadcast to the grid, and each point's row
    ``literals[0]``, its cell of ``columns[0]``, ``literals[1]``, and so on
    to ``literals[-1]``.

    The cells come from one ``kernel`` call (:func:`shiftknot._cells.float_cells`
    or :func:`~shiftknot._cells.pixel_cells`) over every value the columns
    hold, so a value broadcast across the grid is formatted once. Their NUL
    padding is for the caller to drop.
    """
    cells = kernel(np.concatenate(columns, axis=None))
    width = cells.shape[1]
    literals = [np.frombuffer(literal.encode(), dtype=np.uint8) for literal in literals]
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    rows = np.empty((*shape, sum(map(len, literals)) + width * len(columns)), dtype=np.uint8)
    at = 0
    for literal, column in zip(literals, columns):
        rows[..., at : at + len(literal)] = literal
        at += len(literal)
        cell, cells = cells[: column.size], cells[column.size :]
        rows[..., at : at + width] = cell.reshape(*column.shape, width)
        at += width
    rows[..., at:] = literals[-1]
    return rows


def _table(fmt: str, names, columns, meta=()) -> list[bytes]:
    """One row per point of the grid that the float ``columns`` broadcast
    to, each with the grid's number of axes: the point's cell of each
    column, written by ``%.17g``.

    CSV is a header line then the rows; JSON is an object holding the
    ``meta`` (name, value) entries, then the rows as ``"samples"``. The
    rows are made by :func:`_rows` a block of whole first-axis lines at a
    time, about ``_BLOCK_ROWS`` rows, and returned as bytes per block.

    Raises ``ConstraintError`` when a column holds a non-finite value,
    which neither format can carry.
    """
    from ._cells import float_cells

    for name, column in zip(names, columns):
        finite = np.isfinite(column)
        if not finite.all():
            raise ConstraintError(f"{fmt.upper()} output cannot carry the non-finite value"
                                  f" {float(column[~finite][0])!r} in column {name!r}")
    if fmt == "csv":
        head = ",".join(names) + "\n"
        literals = ["", *[","] * (len(names) - 1), "\n"]
        sep, tail = "\n", "\n"
    else:
        head = "{\n" + "".join(f' "{k}": {_json_text(v)},\n' for k, v in meta)
        head += ' "samples": [\n  '
        literals = [f'{{"{names[0]}": ', *(f', "{name}": ' for name in names[1:]), "},\n  "]
        sep, tail = ",\n  ", "\n ]\n}\n"
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    lines = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    blocks = [head.encode()]
    for lo in range(0, shape[0], lines):
        # a column of one line broadcasts along the first axis: whole in every block
        block = [column[lo : lo + lines] if len(column) > 1 else column for column in columns]
        blocks.append(_rows(float_cells, literals, block).tobytes().translate(None, b"\0"))
    if shape[0]:
        blocks[-1] = blocks[-1][: -len(sep)]
    blocks.append(tail.encode())
    return blocks


def _svg_render(xs, ys, strokes, cross_strokes, bbox, domains, *, annotations=()) -> list[bytes]:
    """Fixed 640x480 viewport; ``bbox`` is the unpadded data extent.

    ``xs`` and ``ys`` are float arrays in data coordinates that broadcast
    to shape ``(lines, count)``, drawn as polyline ``i`` in ``strokes[i]``
    for each line, then as polyline ``[:, j]`` in ``cross_strokes[j]`` for
    each column that has a stroke. The pixels are computed by one array
    operation per coordinate and written by one :func:`_rows` call, so each
    point's text, and each value that ``xs`` or ``ys`` broadcasts, is made
    once. Each ``(name, DomainInterval)`` of ``domains`` becomes the root's
    attribute ``data-<name>="lo hi"``; each ``(x, label)`` of
    ``annotations`` a tick at ``x`` on the bottom edge.

    Raises ``ConstraintError`` when the extent is too wide or too narrow
    for float64 to place every point at a finite pixel, or when a pixel
    is at or beyond ``_cells._PIXEL_LIMIT`` (1e7) in magnitude, outside
    the pixel kernel's range; no command's extent puts a pixel there.
    """
    from ._cells import _PIXEL_LIMIT, PIXEL_SPEC, pixel_cells

    width, height = 640, 480
    xmin, xmax, ymin, ymax = bbox
    spanx = (xmax - xmin) or 1.0
    spany = (ymax - ymin) or 1.0
    xmin -= 0.05 * spanx
    xmax += 0.05 * spanx
    ymin -= 0.05 * spany
    ymax += 0.05 * spany
    # a flat extent at a large magnitude absorbs its padding: no finite scale
    sx = width / (xmax - xmin) if xmax > xmin else math.inf
    sy = height / (ymax - ymin) if ymax > ymin else math.inf
    ticks = [((x - xmin) * sx, label) for x, label in annotations]
    # the ticks' formula elementwise: the same IEEE operations and rounding;
    # an overflowed extent (0 * inf) is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        px, py = (xs - xmin) * sx, height - (ys - ymin) * sy
    if not (math.isfinite(sx) and math.isfinite(sy)
            and all(math.isfinite(tick) for tick, _ in ticks)
            and (abs(px) < _PIXEL_LIMIT).all() and (abs(py) < _PIXEL_LIMIT).all()):
        raise ConstraintError(
            "SVG output cannot place the data extent"
            f" [{bbox[0]!r}, {bbox[1]!r}] x [{bbox[2]!r}, {bbox[3]!r}] at finite pixels"
        )

    attrs = "".join(f' data-{name}="{format_float(dom.lo)} {format_float(dom.hi)}"'
                    for name, dom in domains)
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}"{attrs}>'
    ]
    for tick, label in ticks:
        tick = PIXEL_SPEC % tick
        head += [f'<line x1="{tick}" y1="{height - 10}" x2="{tick}" y2="{height}"'
                 ' stroke="#333333" stroke-width="1"/>',
                 f'<text x="{tick}" y="{height - 14}" font-size="11"'
                 f' font-family="monospace" text-anchor="middle">{label}</text>']
    blocks = ["".join(line + "\n" for line in head).encode()]
    # one row per point, "x,y "; the NUL padding and each line's last " " dropped
    text = _rows(pixel_cells, ["", ",", " "], [px, py])
    for lines, line_strokes in ((text, strokes), (text.swapaxes(0, 1), cross_strokes)):
        for line, stroke in zip(lines, line_strokes):
            blocks.append(
                f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5" points="'.encode()
                + line.tobytes().translate(None, b"\0")[:-1] + b'"/>\n'
            )
    blocks.append(b"</svg>\n")
    return blocks


def _emit(blocks, output) -> None:
    """Write ``blocks`` of ASCII bytes to the file ``output``, or to stdout."""
    if output:
        with open(output, "wb") as fh:
            fh.writelines(blocks)
    else:
        try:
            for block in blocks:
                sys.stdout.write(block.decode("ascii"))
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; what stdout still holds would fail again,
            # past main, at the interpreter's exit flush: drop it instead
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise


# ---------------------------------------------------------------------------
# subcommands


def cmd_basis(args) -> list[bytes]:
    config = make_config(args.alpha, args.beta)
    dom = domain(config, args.degree)
    ts = _sample_grid(dom, args.samples, args.range, args.clamp)
    rows = basis_rows(config, args.degree, ts, clamp=True)
    count = args.degree + 1
    if args.format != "svg":
        meta = [("alpha", config.alpha), ("beta", config.beta), ("degree", args.degree),
                ("domain", (dom.lo, dom.hi))]
        # k as a float: %.17g writes a whole number up to MAX_DEGREE without a point
        k = np.arange(count, dtype=float)
        return _table(args.format, ["t", "k", "value"], [ts[:, None], k[None], rows], meta)
    strokes = [_PALETTE[k % len(_PALETTE)] for k in range(count)]
    bbox = (float(ts[0]), float(ts[-1]), min(0.0, float(rows.min())), max(1.0, float(rows.max())))
    annotations = [(dom.lo, format(dom.lo, ".6g")), (dom.hi, format(dom.hi, ".6g"))]
    return _svg_render(ts, rows.T, strokes, (), bbox, [("domain", dom)], annotations=annotations)


_EVALUATORS = {
    "direct": eval_direct,
    "decasteljau": eval_decasteljau,
    "matrix": eval_matrix_form,
}


def cmd_curve_eval(args) -> list[bytes]:
    curve = load_curve(args.file)
    _coord_names(curve.dimension)
    point = _EVALUATORS[args.algorithm](curve, args.t, clamp=args.clamp)
    if not np.isfinite(point).all():
        raise ConstraintError(f"the point at t = {args.t!r} is not finite: {point.tolist()!r}")
    doc = {"t": args.t, "algorithm": args.algorithm, "point": point}
    return [(_json_text(doc) + "\n").encode()]


def cmd_curve_sample(args) -> list[bytes]:
    curve = load_curve(args.file)
    names = _coord_names(curve.dimension)
    dom = curve.domain
    ts = _sample_grid(dom, args.samples, args.range, args.clamp)
    points = sample_curve(curve, ts, algorithm=args.algorithm, clamp=True)
    if args.format != "svg":
        return _table(args.format, ["t", *names], [ts, *points.T], [("domain", (dom.lo, dom.hi))])
    ctrl = curve.control
    if curve.dimension == 1:
        xs, ys = ts, points[:, 0]
        bbox = (float(ts[0]), float(ts[-1]), float(ctrl[:, 0].min()), float(ctrl[:, 0].max()))
    else:
        xs, ys = points[:, 0], points[:, 1]
        bbox = tuple(float(f(ctrl[:, c])) for c in (0, 1) for f in (np.min, np.max))
    return _svg_render(xs[None], ys[None], _PALETTE[:1], (), bbox, [("domain", dom)])


def cmd_elevate(args) -> list[bytes]:
    curve = load_curve(args.file)
    return [curve_to_json(elevate_many(curve, args.levels)).encode()]


def cmd_surface_sample(args) -> list[bytes]:
    patch = load_patch(args.file)
    names = _coord_names(patch.dimension)
    dom_u, dom_v = patch.domain_u, patch.domain_v
    us = _sample_grid(dom_u, args.samples, None, False)
    vs = _sample_grid(dom_v, args.samples, None, False)
    grid = sample_patch(patch, us, vs, clamp=True)
    if args.format != "svg":
        meta = [("domain_u", (dom_u.lo, dom_u.hi)), ("domain_v", (dom_v.lo, dom_v.hi))]
        return _table(args.format, ["u", "v", *names],
                      [us[:, None], vs[None], *grid.transpose(2, 0, 1)], meta)
    if patch.dimension < 2:
        raise ConstraintError("SVG wireframes need 2 or 3 coordinates")
    if patch.dimension == 2:
        a, b = 0, 1
    else:
        dropped = {"x": 0, "y": 1, "z": 2}[args.drop_axis]
        a, b = (c for c in range(3) if c != dropped)
    flat = patch.net.reshape(-1, patch.dimension)
    bbox = tuple(float(f(flat[:, c])) for c in (a, b) for f in (np.min, np.max))
    # the u-lines, then the v-lines: the grid's columns
    return _svg_render(grid[..., a], grid[..., b], [_PALETTE[0]] * len(us),
                       [_PALETTE[1]] * len(vs), bbox, [("domain-u", dom_u), ("domain-v", dom_v)])


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


@functools.lru_cache(maxsize=None)
def _parser_prototype() -> argparse.ArgumentParser:
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

    p = sub.add_parser("curve-eval", help="evaluate a curve file at one parameter")
    p.add_argument("file", help="curve JSON file")
    p.add_argument("t", type=float)
    p.add_argument("--algorithm", choices=tuple(_EVALUATORS), default="direct")
    p.add_argument("--clamp", action="store_true")
    p.add_argument("--output")

    p = sub.add_parser("curve-sample", help="sample a curve file over its domain")
    p.add_argument("file", help="curve JSON file")
    p.add_argument("--algorithm", choices=tuple(_EVALUATORS), default="direct")
    _add_format(p, default_samples=200)

    p = sub.add_parser("elevate", help="degree-elevate a curve file")
    p.add_argument("file", help="curve JSON file")
    p.add_argument("--levels", type=int, default=1, help="how many times to elevate")
    p.add_argument("--output")

    p = sub.add_parser("surface-sample", help="sample a patch file over its domains")
    p.add_argument("file", help="patch JSON file")
    p.add_argument("--drop-axis", choices=("x", "y", "z"), default="z",
                   help="axis removed by the SVG orthographic projection")
    _add_format(p, default_samples=20, with_range=False)

    return parser


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: a shallow copy of one built on first use,
    so each call returns its own top-level object. The copies share their
    arguments and subcommands; add none to them."""
    return copy.copy(_parser_prototype())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a wrapper bound to the module attribute runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # an overflow surfaces as a non-finite value, which the output
        # layer reports as one error line; numpy's warning would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = command(args)
        _emit(blocks, getattr(args, "output", None))
        return 0
    except (FileFormatError, OSError, MemoryError) as exc:
        # output that cannot be made whole, as at an impossible sample count
        print(f"shiftknot: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"shiftknot: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

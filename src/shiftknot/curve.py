"""Bezier curves over shifted-knot Bernstein bases.

A curve of degree n is a convex blend of ``n + 1`` control points evaluated
on the degree-n domain of its knot-shift pair. Three evaluation routes are
provided (direct basis blend, de Casteljau pyramid, step-matrix products)
plus degree elevation and endpoint derivatives; their kernels, and every
BLAS call, are in :mod:`shiftknot._kernels`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .basis import (
    MAX_DEGREE,
    DomainInterval,
    ShiftedKnotConfig,
    _basis_row_on,
    _check_int,
    basis_rows,  # noqa: F401  (perfbench's tracer wraps this module attribute)
    binomial_row,
    domain,
)
from .errors import ConstraintError

__all__ = [
    "Curve",
    "DeCasteljauTriangle",
    "eval_direct",
    "eval_decasteljau",
    "eval_matrix_form",
    "sample_curve",
    "decasteljau_triangle",
    "step_matrix",
    "elevation_matrix",
    "elevate",
    "elevate_many",
    "endpoint_derivative",
]


def _freeze_points(points, *, ndim: int, what: str) -> np.ndarray:
    """Read-only C-contiguous float copy of an ``ndim``-dimensional array of
    points; strided views such as ``eval_patch_decasteljau``'s need C order.

    Every axis but the last (the coordinates) is one degree direction and
    holds ``2 .. MAX_DEGREE + 1`` points.
    """
    try:
        arr = np.array(points, dtype=np.float64, order="C")
    except OverflowError:
        # an integer beyond float range, such as a JSON literal 10**400
        raise ConstraintError(f"{what} coordinates must be finite") from None
    except (TypeError, ValueError) as exc:
        raise ConstraintError(f"{what} must form a rectangular numeric array") from exc
    if arr.ndim != ndim:
        raise ConstraintError(
            f"{what} must be a {ndim - 1}-dimensional array of points, got shape {arr.shape}"
        )
    for rows in arr.shape[:-1]:
        _check_int(rows - 1, 1, MAX_DEGREE, "degree", ConstraintError)
    if arr.shape[-1] < 1:
        raise ConstraintError(f"{what} points need at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise ConstraintError(f"{what} coordinates must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Curve:
    """Immutable control polygon plus its knot-shift configuration.

    Compared and hashed by identity: two objects built from equal arrays
    are distinct, and each can serve as a dict key.
    """

    config: ShiftedKnotConfig
    control: np.ndarray

    def __post_init__(self):
        if not isinstance(self.config, ShiftedKnotConfig):
            raise ConstraintError("config must be a ShiftedKnotConfig")
        arr = _freeze_points(self.control, ndim=2, what="control polygon")
        object.__setattr__(self, "control", arr)

    @property
    def degree(self) -> int:
        return self.control.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.control.shape[1]

    @functools.cached_property
    def domain(self) -> DomainInterval:
        """The degree's interval, built on first use and then held. A
        degenerate one raises on every use, as nothing is held."""
        return domain(self.config, self.degree)


def eval_direct(curve: Curve, t: float, *, clamp: bool = False) -> np.ndarray:
    """Blend the control points with the basis row at ``t``."""
    return _kernels.combine(_basis_row_on(curve.domain, t, clamp), curve.control)


def eval_decasteljau(curve: Curve, t: float, *, clamp: bool = False) -> np.ndarray:
    """Collapse the control polygon by repeated convex combination."""
    dom = curve.domain
    wl, wr = dom.weights(dom.admit(t, clamp))
    return _kernels.decasteljau_batch(curve.control, wl, wr)


def eval_matrix_form(curve: Curve, t: float, *, clamp: bool = False) -> np.ndarray:
    """Evaluate through explicit step-matrix products.

    Numerically this performs the same convex combinations as the pyramid,
    but it goes through materialized matrices so the route is independently
    checkable against :func:`step_matrix`.
    """
    dom = curve.domain
    wl, wr = dom.weights(dom.admit(t, clamp))
    return _kernels.step_products(curve.control, wl, wr)


def sample_curve(curve: Curve, ts, *, algorithm: str = "direct", clamp: bool = False) -> np.ndarray:
    """Evaluate at many parameters, shape ``(len(ts), dimension)``."""
    dom = curve.domain
    ts = dom.admit_array(ts, clamp)
    if algorithm == "direct":
        rows = _kernels.basis_rows_batch(*dom.weights(ts), binomial_row(curve.degree))
        return _kernels.combine(rows, curve.control)
    if algorithm == "decasteljau":
        return _kernels.decasteljau_batch(curve.control, *dom.weights(ts))
    if algorithm == "matrix":
        return _kernels.step_products(curve.control, *dom.weights(ts))
    raise ConstraintError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class DeCasteljauTriangle:
    """All intermediate pyramid levels of one evaluation.

    ``levels[0]`` is the control polygon; ``levels[r]`` holds the
    ``n - r + 1`` points after r combination steps; the apex is the curve
    point.
    """

    levels: tuple[np.ndarray, ...]

    @property
    def apex(self) -> np.ndarray:
        return self.levels[-1][0]


def decasteljau_triangle(curve: Curve, t: float, *, clamp: bool = False) -> DeCasteljauTriangle:
    """Run the pyramid and keep every level."""
    dom = curve.domain
    wl, wr = dom.weights(dom.admit(t, clamp))
    work = curve.control
    levels = [work]
    for _ in range(curve.degree):
        work = wl * work[:-1] + wr * work[1:]
        work.setflags(write=False)
        levels.append(work)
    return DeCasteljauTriangle(tuple(levels))


def step_matrix(
    config: ShiftedKnotConfig, n: int, r: int, t: float, *, clamp: bool = False
) -> np.ndarray:
    """Matrix of pyramid step ``r`` (1-based), shape ``(n-r+1, n-r+2)``.

    Each row holds the convex pair; the product of all n step matrices
    applied to the control polygon yields the curve point.
    """
    dom = domain(config, n)
    r = _check_int(r, 1, dom.degree, "step index", IndexError)
    wl, wr = dom.weights(dom.admit(t, clamp))
    return _kernels.band_matrices(dom.degree - r + 1, wl, wr)


def elevation_matrix(n: int) -> np.ndarray:
    """Degree elevation as a row-stochastic bidiagonal matrix.

    Shape ``(n + 2, n + 1)``, the elevation kernel on the identity: row j
    blends ``j/(n+1)`` of point ``j - 1`` with ``(n+1-j)/(n+1)`` of point
    ``j``, so both endpoints are copied verbatim. Column k holds degree-n
    basis function k in the degree-(n+1) basis of the same frame:
    ``B(n, k) = E[k, k] B(n+1, k) + E[k+1, k] B(n+1, k+1)``.
    """
    n = _check_int(n, 1, MAX_DEGREE, "degree", ConstraintError)
    return _kernels.elevate_points(np.eye(n + 1))


def elevate(curve: Curve) -> Curve:
    """Rewrite the curve with one more control point.

    The new polygon reproduces the same point set: the degree-(n+1) curve
    traced over its own domain matches the original traced over its domain
    at equal normalized parameters.
    """
    return Curve(curve.config, _kernels.elevate_points(curve.control))


def elevate_many(curve: Curve, levels: int) -> Curve:
    """Apply :func:`elevate` ``levels`` times."""
    levels = _check_int(levels, 1, math.inf, "elevation count", ConstraintError)
    if curve.degree + levels > MAX_DEGREE:
        raise ConstraintError(
            f"elevating degree {curve.degree} by {levels} exceeds MAX_DEGREE {MAX_DEGREE}"
        )
    for _ in range(levels):
        curve = elevate(curve)
    return curve


def endpoint_derivative(curve: Curve, end: str) -> np.ndarray:
    """One-sided derivative at ``end`` ("lo" or "hi").

    Equals ``(n + beta) * (P1 - P0)`` at the left end and
    ``(n + beta) * (Pn - P(n-1))`` at the right end, so the tangent leaves
    along the first (or arrives along the last) polygon leg.
    """
    if end not in ("lo", "hi"):
        raise ConstraintError(f"end must be 'lo' or 'hi', got {end!r}")
    first, last = (0, 1) if end == "lo" else (-2, -1)
    with np.errstate(over="ignore"):
        out = (curve.degree + curve.config.beta) * (curve.control[last] - curve.control[first])
    if not np.isfinite(out).all():
        raise ConstraintError(f"derivative at end {end!r} overflows float64")
    return out

"""Tensor-product Bezier patches over shifted-knot Bernstein bases.

A patch of degrees ``(m, n)`` blends an ``(m+1) x (n+1)`` control net with
one basis row per direction. The two directions share the knot-shift pair
but carry their own domains: u lives on the degree-m interval and v on the
degree-n interval.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .basis import (
    DomainInterval,
    ShiftedKnotConfig,
    _basis_row_on,
    basis_rows,
    domain,
)
from .curve import Curve, _freeze_points, elevation_matrix
from .errors import ConstraintError

__all__ = [
    "SurfacePatch",
    "eval_patch",
    "eval_patch_decasteljau",
    "sample_patch",
    "isoparam_u",
    "isoparam_v",
    "elevate_patch",
]

# Largest control net, in doubles, whose single-point pyramid runs in Python
# floats. A step costs numpy four calls whatever the net's size, and Python
# one four-term sum per double of the next level. On one CPU of a 2-vCPU
# Xeon, dims 1 to 4, they took equal time at 42-48 doubles for nets one step
# deep and at 64-72 for square ones; up to 48, Python was at most 8% slower.
_LIST_STENCIL_MAX = 48


@dataclass(frozen=True, eq=False)
class SurfacePatch:
    """Immutable control net plus its knot-shift configuration.

    Compared and hashed by identity: two objects built from equal arrays
    are distinct, and each can serve as a dict key.
    """

    config: ShiftedKnotConfig
    net: np.ndarray

    def __post_init__(self):
        if not isinstance(self.config, ShiftedKnotConfig):
            raise ConstraintError("config must be a ShiftedKnotConfig")
        arr = _freeze_points(self.net, ndim=3, what="control net")
        object.__setattr__(self, "net", arr)

    @property
    def degrees(self) -> tuple[int, int]:
        return self.net.shape[0] - 1, self.net.shape[1] - 1

    @property
    def dimension(self) -> int:
        return self.net.shape[2]

    # Each interval is built on first use and then held, as Curve.domain is.

    @functools.cached_property
    def domain_u(self) -> DomainInterval:
        return domain(self.config, self.net.shape[0] - 1)

    @functools.cached_property
    def domain_v(self) -> DomainInterval:
        return domain(self.config, self.net.shape[1] - 1)


def eval_patch(patch: SurfacePatch, u: float, v: float, *, clamp: bool = False) -> np.ndarray:
    """Blend the net with one basis row per direction."""
    row_u = _basis_row_on(patch.domain_u, u, clamp)
    row_v = _basis_row_on(patch.domain_v, v, clamp)
    return _kernels.patch_grid(patch.net, row_u, row_v)


def sample_patch(patch: SurfacePatch, us, vs, *, clamp: bool = False) -> np.ndarray:
    """Evaluate over the full grid ``us x vs``, shape ``(U, V, dimension)``."""
    m, n = patch.degrees
    rows_u = basis_rows(patch.config, m, us, clamp=clamp)
    rows_v = basis_rows(patch.config, n, vs, clamp=clamp)
    return _kernels.patch_grid(patch.net, rows_u, rows_v)


def isoparam_u(patch: SurfacePatch, v_star: float, *, clamp: bool = False) -> Curve:
    """Freeze v; the result is the degree-m curve traced by u."""
    row_v = _basis_row_on(patch.domain_v, v_star, clamp)
    return Curve(patch.config, _kernels.blend(row_v, patch.net.transpose(1, 0, 2)))


def isoparam_v(patch: SurfacePatch, u_star: float, *, clamp: bool = False) -> Curve:
    """Freeze u; the result is the degree-n curve traced by v."""
    row_u = _basis_row_on(patch.domain_u, u_star, clamp)
    return Curve(patch.config, _kernels.blend(row_u, patch.net))


def elevate_patch(patch: SurfacePatch) -> SurfacePatch:
    """Raise both degrees by one without changing the traced surface.

    Each new control point is the bilinear blend of its up-to-four old
    neighbours; the four weights sum to 1, and the corner points copy the
    old corners exactly. Equivalent to elevating every row of the net as a
    curve, then every column.
    """
    m, n = patch.degrees
    net = _kernels.patch_grid(patch.net, elevation_matrix(m), elevation_matrix(n))
    return SurfacePatch(patch.config, net)


def eval_patch_decasteljau(
    patch: SurfacePatch, u: float, v: float, *, clamp: bool = False
) -> np.ndarray:
    """Collapse the net with bidirectional convex steps.

    Runs ``min(m, n)`` simultaneous 2x2 stencil steps. Each step makes every
    point of the next level from the four neighbours ``a, b, c, d`` at
    ``(i, j)``, ``(i, j+1)``, ``(i+1, j)`` and ``(i+1, j+1)`` as
    ``((ll*a + lr*b) + rl*c) + rr*d``, where ``ll = wlu*wlv``,
    ``lr = wlu*wrv``, ``rl = wru*wlv`` and ``rr = wru*wrv``. A net of at
    most ``_LIST_STENCIL_MAX`` doubles runs the steps in Python floats
    (:func:`_stencil_floats`), a larger one in numpy calls
    (:func:`_stencil_arrays`); both make these multiplies and adds in this
    order, so they return the same bits. If the degrees differ,
    :func:`_kernels.decasteljau_batch` finishes the surviving polygon along
    the longer direction with that direction's weights.
    """
    m, n = patch.degrees
    dom_u, dom_v = patch.domain_u, patch.domain_v
    wlu, wru = dom_u.weights(dom_u.admit(u, clamp))
    wlv, wrv = dom_v.weights(dom_v.admit(v, clamp))
    stencil = _stencil_floats if patch.net.size <= _LIST_STENCIL_MAX else _stencil_arrays
    poly = stencil(patch.net, wlu * wlv, wlu * wrv, wru * wlv, wru * wrv)
    if m > n:
        return _kernels.decasteljau_batch(poly, wlu, wru)
    if n > m:
        return _kernels.decasteljau_batch(poly, wlv, wrv)
    return poly[0]


def _stencil_floats(net, ll, lr, rl, rr) -> np.ndarray:
    """The stencil steps on one flat row-major list of Python floats; the
    surviving polygon, shape ``(k, dim)``.

    Each step zips the list with itself shifted by one point, one row, and
    one row and one point, so entry ``i`` sees the four neighbours of the
    point it belongs to. The entries of each row's last point, whose right
    neighbours are the next row's first, are then deleted.
    """
    rows, cols, dim = net.shape
    work = net.ravel().tolist()
    for _ in range(min(rows, cols) - 1):
        width = cols * dim
        work = [
            ((ll * a + lr * b) + rl * c) + rr * d
            for a, b, c, d in zip(work, work[dim:], work[width:], work[width + dim :])
        ]
        for end in range((rows - 2) * width, 0, -width):
            del work[end - dim : end]
        rows, cols = rows - 1, cols - 1
    return np.array(work).reshape(rows * cols, dim)


def _stencil_arrays(net, ll, lr, rl, rr) -> np.ndarray:
    """The stencil steps as numpy calls; the surviving polygon, shape
    ``(k, dim)``.

    Each step weighs a strided ``(2, 2, r-1, c-1, dim)`` view of the net,
    which holds the four neighbours of every point (the frozen net is
    C-contiguous, as the view's buffer must be), and adds the four terms
    with one ``np.add.reduce`` in the order ``ll, lr, rl, rr``.
    """
    stencil = np.array([ll, lr, rl, rr]).reshape(2, 2, 1, 1, 1)
    work = net
    for _ in range(min(net.shape[:2]) - 1):
        rows, cols, dim = work.shape
        row, col, coord = work.strides
        # shape, dtype, buffer, offset, strides: positional, as keywords cost
        # more per call
        corners = np.ndarray(
            (2, 2, rows - 1, cols - 1, dim), float, work, 0, (row, col, row, col, coord)
        )
        # C order makes the reshape to the four terms a view, not a copy
        terms = np.multiply(stencil, corners, order="C").reshape(4, rows - 1, cols - 1, dim)
        # -0.0 + x is x bit for bit, where add.reduce's default start of +0.0
        # would turn a sum of -0.0 terms into +0.0
        work = np.add.reduce(terms, axis=0, initial=-0.0)
    # one of the two degree axes has length 1
    return work.reshape(-1, work.shape[-1])

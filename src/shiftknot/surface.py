"""Tensor-product Bezier patches over shifted-knot Bernstein bases.

A patch of degrees ``(m, n)`` blends an ``(m+1) x (n+1)`` control net with
one basis row per direction. The two directions share the knot-shift pair
but carry their own domains: u lives on the degree-m interval and v on the
degree-n interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .basis import (
    DomainInterval,
    ShiftedKnotConfig,
    basis_row,
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

    @property
    def domain_u(self) -> DomainInterval:
        return domain(self.config, self.net.shape[0] - 1)

    @property
    def domain_v(self) -> DomainInterval:
        return domain(self.config, self.net.shape[1] - 1)


def eval_patch(patch: SurfacePatch, u: float, v: float, *, clamp: bool = False) -> np.ndarray:
    """Blend the net with one basis row per direction."""
    m, n = patch.degrees
    row_u = basis_row(patch.config, m, u, clamp=clamp)
    row_v = basis_row(patch.config, n, v, clamp=clamp)
    return _kernels.patch_grid(patch.net, row_u, row_v)


def sample_patch(patch: SurfacePatch, us, vs, *, clamp: bool = False) -> np.ndarray:
    """Evaluate over the full grid ``us x vs``, shape ``(U, V, dimension)``."""
    m, n = patch.degrees
    rows_u = basis_rows(patch.config, m, us, clamp=clamp)
    rows_v = basis_rows(patch.config, n, vs, clamp=clamp)
    return _kernels.patch_grid(patch.net, rows_u, rows_v)


def isoparam_u(patch: SurfacePatch, v_star: float, *, clamp: bool = False) -> Curve:
    """Freeze v; the result is the degree-m curve traced by u."""
    _, n = patch.degrees
    row_v = basis_row(patch.config, n, v_star, clamp=clamp)
    return Curve(patch.config, _kernels.blend(row_v, patch.net.transpose(1, 0, 2)))


def isoparam_v(patch: SurfacePatch, u_star: float, *, clamp: bool = False) -> Curve:
    """Freeze u; the result is the degree-n curve traced by v."""
    m, _ = patch.degrees
    row_u = basis_row(patch.config, m, u_star, clamp=clamp)
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

    Runs ``min(m, n)`` simultaneous 2x2 stencil steps. Each step weighs a
    strided ``(2, 2, r-1, c-1, dim)`` view, which holds the four neighbours
    of every point, and adds the four terms in the order ``ll, lr, rl, rr``.
    If the degrees differ, :func:`_kernels.decasteljau_batch` finishes the
    surviving polygon along the longer direction with that direction's
    weights.
    """
    m, n = patch.degrees
    dom_u, dom_v = patch.domain_u, patch.domain_v
    u = dom_u.admit(u, clamp)
    v = dom_v.admit(v, clamp)
    wlu, wru = dom_u.weights(u)
    wlv, wrv = dom_v.weights(v)
    stencil = np.array([wlu * wlv, wlu * wrv, wru * wlv, wru * wrv]).reshape(2, 2, 1, 1, 1)
    work = patch.net
    for _ in range(min(m, n)):
        rows, cols, dim = work.shape
        row, col, coord = work.strides
        # shape, dtype, buffer, offset, strides: positional, as keywords cost
        # more per call
        corners = np.ndarray(
            (2, 2, rows - 1, cols - 1, dim), float, work, 0, (row, col, row, col, coord)
        )
        # C order makes the reshape to the four terms a view, not a copy
        terms = np.multiply(stencil, corners, order="C").reshape(4, rows - 1, cols - 1, dim)
        # -0.0 adds nothing to any term, where add.reduce's default start of
        # +0.0 would turn a sum of -0.0 terms into +0.0
        work = np.add.reduce(terms, axis=0, initial=-0.0)
    if m > n:
        return _kernels.decasteljau_batch(work[:, 0, :], wlu, wru)
    if n > m:
        return _kernels.decasteljau_batch(work[0], wlv, wrv)
    return work[0, 0]

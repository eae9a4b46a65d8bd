"""Evaluation kernels for one parameter or many.

Kernels do no validation: callers pass the normalized convex pair
``(wl, wr)`` of parameters already clamped into the valid domain (see
:meth:`shiftknot.basis.DomainInterval.weights`) and a precomputed binomial
row. The weights are either two floats, for one parameter, or two 1-D
arrays of equal length, one entry per sample; a float pair gives the
result of a one-element array pair with the sample axis dropped, bit for
bit.
"""

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "basis_rows_batch",
    "blend",
    "decasteljau_batch",
    "patch_grid",
]

# Highest supported degree; higher degrees are rejected rather than silently
# degraded. binomial_row rounds the exact integers at any degree, so the cap
# is set by the float evaluation routes, not by the binomials.
MAX_DEGREE = 64

# Exponents of every degree: k is _POWERS[:n + 1] and n - k is _POWERS[n::-1].
_POWERS = np.arange(MAX_DEGREE + 1)
_POWERS.setflags(write=False)

# Multiply-adds per matrix product in blend: OpenBLAS keeps products this
# small on one thread; it split those from about 2**19 on, changing their bits.
_BLEND_BUDGET = 2**18


def basis_rows_batch(wl, wr, binom):
    """All basis values of one degree: shape ``(n+1,)`` for float weights,
    ``(len(wl), n+1)`` for arrays.

    Entry ``[s, k]`` is ``binom[k] * wr[s]**k * wl[s]**(n - k)``.
    """
    n = binom.shape[0] - 1
    if isinstance(wl, np.ndarray):
        wl, wr = wl[:, None], wr[:, None]
    return binom * wr ** _POWERS[: n + 1] * wl ** _POWERS[n::-1]


def decasteljau_batch(control, wl, wr):
    """Pyramid collapse of one control polygon: shape ``(dim,)`` for float
    weights, ``(len(wl), dim)`` for arrays.

    ``wl``/``wr`` are the left/right convex weights; they stay constant
    across pyramid levels. The levels are updated in place in a
    ``(rows, dim)`` buffer for floats and a ``(rows, dim, samples)`` one
    for arrays, so each weight runs along contiguous memory; every level
    computes ``(wl * left) + (wr * right)``, the same float operations as
    :func:`shiftknot.curve.decasteljau_triangle`.
    """
    rows, dim = control.shape
    if isinstance(wl, np.ndarray):
        work = np.empty((rows, dim, wl.shape[0]))
        work[...] = control[:, :, None]
    else:
        work = control.copy()
        # as 0-d arrays, the weights are not converted again on every level
        wl, wr = np.array(wl), np.array(wr)
    right = np.empty_like(work[1:])
    for m in range(rows - 1, 0, -1):
        left, scaled = work[:m], right[:m]
        np.multiply(wr, work[1 : m + 1], scaled)
        left *= wl
        left += scaled
    return np.ascontiguousarray(work[0].T)


def blend(rows, points):
    """Contract one row ``(K,)`` or rows ``(S, K)`` with ``points`` ``(K, ...)``.

    Many rows go in blocks of ``_BLEND_BUDGET // points.size`` rows, at
    least one, one ``matmul`` each; a one-row product kept its bits under
    every thread count at every size measured.
    """
    if points.ndim > 2:
        flat = blend(rows, points.reshape(len(points), -1))
        return flat.reshape(rows.shape[:-1] + points.shape[1:])
    if rows.ndim == 1:
        return rows @ points
    out = np.empty((len(rows), points.shape[1]))
    step = max(1, _BLEND_BUDGET // points.size)
    for lo in range(0, len(rows), step):
        np.matmul(rows[lo : lo + step], points, out=out[lo : lo + step])
    return out


def patch_grid(net, rows_u, rows_v):
    """Tensor-product contraction along v first: shape ``(dim,)`` for one
    row per direction, ``(U, V, dim)`` for rows ``(U, m+1)`` and ``(V, n+1)``."""
    by_v = blend(rows_v, net.swapaxes(0, 1))
    return blend(rows_u, by_v.swapaxes(0, -2))

"""Batch evaluation kernels.

Kernels do no validation: callers pass the normalized convex pair
``(wl, wr)`` of parameters already clamped into the valid domain (see
:meth:`shiftknot.basis.DomainInterval.weights`) and a precomputed binomial
row.
"""

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "basis_rows_batch",
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


def basis_rows_batch(wl, wr, binom):
    """All basis values of one degree at every sample, shape (len(wl), n+1).

    Entry ``[s, k]`` is ``binom[k] * wr[s]**k * wl[s]**(n - k)``.
    """
    n = binom.shape[0] - 1
    return binom * wr[:, None] ** _POWERS[: n + 1] * wl[:, None] ** _POWERS[n::-1]


def decasteljau_batch(control, wl, wr):
    """Pyramid collapse of one control polygon at many parameters.

    ``wl``/``wr`` are the per-sample left/right convex weights; they stay
    constant across pyramid levels. Returns shape ``(len(wl), dim)``.

    The levels are updated in place in a ``(rows, dim, samples)`` buffer,
    so each weight runs along contiguous memory; every level computes
    ``(wl * left) + (wr * right)``, the same float operations as
    :func:`shiftknot.curve.decasteljau_triangle`.
    """
    rows, dim = control.shape
    work = np.empty((rows, dim, wl.shape[0]))
    work[...] = control[:, :, None]
    right = np.empty((rows - 1, dim, wl.shape[0]))
    for m in range(rows - 1, 0, -1):
        left, scaled = work[:m], right[:m]
        np.multiply(wr, work[1 : m + 1], out=scaled)
        np.multiply(wl, left, out=left)
        np.add(left, scaled, out=left)
    return np.ascontiguousarray(work[0].T)


def patch_grid(net, rows_u, rows_v):
    """Tensor-product contraction over a full sample grid, shape (U, V, d)."""
    return np.einsum("ui,ijc,vj->uvc", rows_u, net, rows_v, optimize=True)

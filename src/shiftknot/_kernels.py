"""Evaluation kernels for one parameter or many.

Kernels do no validation: callers pass the normalized convex pair
``(wl, wr)`` of parameters already clamped into the valid domain (see
:meth:`shiftknot.basis.DomainInterval.weights`) and a precomputed binomial
row. The weights are either two floats, for one parameter, or two 1-D
arrays of equal length, one entry per sample; a float pair gives the
result of a one-element array pair with the sample axis dropped, bit for
bit. The step-matrix kernels take floats or ``(samples, 1)`` columns
instead, and keep the sample axis for floats.

Every BLAS call of the package is here, the ``matmul`` of :func:`blend` and
:func:`step_products`: OpenBLAS's per-CPU kernels and thread split set
those products' last bits.
"""

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "band_matrices",
    "basis_rows_batch",
    "blend",
    "decasteljau_batch",
    "patch_grid",
    "powers",
    "step_products",
]

# Highest supported degree; higher degrees are rejected rather than silently
# degraded. binomial_row could round the exact integers at any degree, so
# the cap is set by the float evaluation routes, not by the binomials.
MAX_DEGREE = 64

# Multiply-adds per matrix product in blend: OpenBLAS keeps products this
# small on one thread; it split those from about 2**19 on, changing their bits.
_BLEND_BUDGET = 2**18

# Doubles per block of pyramid rows in decasteljau_batch: a block and its
# scratch, 256 KiB each, stay in L2 while a level streams through them.
_PYRAMID_BUDGET = 2**15

# Largest control polygon, in doubles, whose single-point pyramid runs on a
# list of Python floats. A level costs numpy three calls whatever its size,
# and Python one multiply-add per double of the level; on one CPU of a
# 2-vCPU Xeon they took equal time at 39-40 doubles, at every dim from 1 to 4.
_LIST_PYRAMID_MAX = 39


def powers(w, n):
    """``[w**0, w**1, ..., w**n]`` as running products of Python floats:
    entry ``j`` is entry ``j - 1`` times ``w``, from ``1.0``."""
    out = [1.0]
    for _ in range(n):
        out.append(out[-1] * w)
    return out


def basis_rows_batch(wl, wr, binom):
    """All basis values of one degree: shape ``(n+1,)`` for float weights,
    ``(len(wl), n+1)`` for arrays.

    Entry ``[s, k]`` is ``(wr[s]**k * binom[k]) * wl[s]**(n - k)``, with
    each power a running product from 1 (see :func:`powers`), so it is
    made of IEEE multiplies alone, in this order, on every CPU. For arrays
    the powers of ``wl`` fill one ``(n+1, S)`` buffer along the sample
    axis, and row ``n - k`` is then overwritten with entry ``k``; row 0,
    ``wl**0 = 1``, doubles as the running power of ``wr``, since the last
    entry's factor 1 is exact. The output is that buffer transposed.

    An entry rounds at most ``n + 1`` times, so while no partial product
    is subnormal it is within ``(n+1) u / (1 - (n+1) u)``, ``u = 2**-53``,
    relative of the exact product at the float weights. A subnormal power
    may lose ``2**-1075``, which the binomial scales by up to ``C(n, k)``.
    """
    n = binom.shape[0] - 1
    if not isinstance(wl, np.ndarray):
        low, high = powers(wl, n), powers(wr, n)
        return np.array([high[k] * b * low[n - k] for k, b in enumerate(binom.tolist())])
    low = np.empty((n + 1, wl.shape[0]))
    low[0] = 1.0
    for j in range(1, n + 1):
        np.multiply(low[j - 1], wl, out=low[j])
    high = low[0]
    for k, b in enumerate(binom.tolist()[:n]):
        low[n - k] *= high * b
        high *= wr
    high *= binom[n]
    return np.ascontiguousarray(low[::-1].T)


def decasteljau_batch(control, wl, wr):
    """Pyramid collapse of one control polygon: shape ``(dim,)`` for float
    weights, ``(len(wl), dim)`` for arrays.

    ``wl``/``wr`` are the left/right convex weights; they stay constant
    across pyramid levels. Every level computes ``(wl * left) + (wr *
    right)``, the same float operations as
    :func:`shiftknot.curve.decasteljau_triangle`, wherever it runs:

    - float weights and at most ``_LIST_PYRAMID_MAX`` control doubles: on a
      flat row-major list of Python floats, where a level pairs each entry
      with the one ``dim`` further on;
    - float weights and a larger polygon: in place in a ``(rows, dim)``
      buffer, three numpy calls per level;
    - arrays: in place in a ``(rows, dim, samples)`` buffer, so each weight
      runs along contiguous memory.

    For arrays, each level is updated in blocks of
    ``_PYRAMID_BUDGET // (dim * samples)`` rows, at least one, through one
    block of scratch, so a large batch streams cache-sized blocks instead
    of the whole buffer. The blocks rise: row ``i`` of a level reads row
    ``i + 1`` of the level before, which the next block overwrites only
    after this one has read it.
    """
    rows, dim = control.shape
    if not isinstance(wl, np.ndarray):
        if control.size <= _LIST_PYRAMID_MAX:
            work = control.ravel().tolist()
            for _ in range(rows - 1):
                work = [wl * a + wr * b for a, b in zip(work, work[dim:])]
            return np.array(work)
        work = control.copy()
        # as 0-d arrays, the weights are not converted again on every level
        wl, wr = np.array(wl), np.array(wr)
        right = np.empty_like(work[1:])
        for m in range(rows - 1, 0, -1):
            left, scaled = work[:m], right[:m]
            np.multiply(wr, work[1 : m + 1], scaled)
            left *= wl
            left += scaled
        return work[0]
    work = np.empty((rows, dim, wl.shape[0]))
    work[...] = control[:, :, None]
    step = max(1, _PYRAMID_BUDGET // max(1, work[0].size))
    right = np.empty_like(work[1 : 1 + min(step, rows - 1)])
    for m in range(rows - 1, 0, -1):
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            left, scaled = work[lo:hi], right[: hi - lo]
            np.multiply(wr, work[lo + 1 : hi + 1], scaled)
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
    step = max(1, _BLEND_BUDGET // max(1, points.size))
    for lo in range(0, len(rows), step):
        np.matmul(rows[lo : lo + step], points, out=out[lo : lo + step])
    return out


def patch_grid(net, rows_u, rows_v):
    """Tensor-product contraction along v first: shape ``(dim,)`` for one
    row per direction, ``(U, V, dim)`` for rows ``(U, m+1)`` and ``(V, n+1)``."""
    by_v = blend(rows_v, net.swapaxes(0, 1))
    return blend(rows_u, by_v.swapaxes(0, -2))


def band_matrices(rows, wl, wr):
    """One step matrix per sample, shape ``(samples, rows, rows + 1)``.

    ``wl``/``wr`` are floats, for one sample, or columns of shape
    ``(samples, 1)``. Row i of each matrix holds ``wl`` at column i and
    ``wr`` at column i + 1; in the flattened matrix those are every
    ``(rows + 2)``-th entry from 0 and 1.
    """
    samples = wl.shape[0] if isinstance(wl, np.ndarray) else 1
    mats = np.zeros((samples, rows, rows + 1))
    flat = mats.reshape(samples, -1)
    flat[:, 0 :: rows + 2] = wl
    flat[:, 1 :: rows + 2] = wr
    return mats


def step_products(control, wl, wr):
    """Apply all step matrices to the control polygon for every sample;
    weights are as in :func:`band_matrices`. Shape ``(samples, dim)``.

    Each level's step matrices are the top-left ``(rows, rows + 1)`` blocks
    of the first level's, so one band stack serves every level.
    """
    mats = band_matrices(control.shape[0] - 1, wl, wr)
    vec = control
    for rows in range(control.shape[0] - 1, 0, -1):
        vec = mats[:, :rows, : rows + 1] @ vec
    return vec[:, 0]

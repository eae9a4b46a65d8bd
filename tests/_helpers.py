"""Shared random factories, geometric checks and the CLI subprocess runner
for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from shiftknot import MAX_DEGREE, Curve, DomainError, SurfacePatch, make_config

# Shift pairs of the bit-pinning tests, from classical to the float64 edge.
PIN_SHIFTS = [(0.0, 0.0), (4.0, 6.0), (1e3, 1e4), (1e8, 1e9)]


def run_shiftknot(*argv, module="shiftknot"):
    """Run ``python -m <module> *argv`` in a child process with the
    checkout's ``src`` first on its ``PYTHONPATH``, so it imports the code
    under test with or without an install; text output is captured."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
    )


def random_config(rng, beta_max=20.0):
    beta = rng.uniform(0.0, beta_max)
    return make_config(rng.uniform(0.0, beta), beta)


def random_curve(rng, degree=None, dim=None, config=None, span=10.0):
    if config is None:
        config = random_config(rng)
    if degree is None:
        degree = int(rng.integers(1, 13))
    if dim is None:
        dim = int(rng.choice([2, 3]))
    return Curve(config, rng.uniform(-span, span, size=(degree + 1, dim)))


def random_patch(rng, m=None, n=None, dim=3, config=None, span=10.0):
    if config is None:
        config = random_config(rng)
    if m is None:
        m = int(rng.integers(1, 7))
    if n is None:
        n = int(rng.integers(1, 7))
    return SurfacePatch(config, rng.uniform(-span, span, size=(m + 1, n + 1, dim)))


def pinned_curves(alpha, beta, dim, seed=0):
    """One random curve per degree 1..MAX_DEGREE with its parameters: seven
    evenly spaced ones, both domain ends exactly, and five random ones."""
    rng = np.random.default_rng(seed)
    config = make_config(alpha, beta)
    for n in range(1, MAX_DEGREE + 1):
        curve = random_curve(rng, degree=n, dim=dim, config=config)
        dom = curve.domain
        inner = np.clip(dom.lo + rng.uniform(size=5) * dom.width, dom.lo, dom.hi)
        yield curve, np.concatenate([dom.grid(7), inner])


def pinned_patches(alpha, beta, dim, seed=0):
    """One random patch per degree pair (m, 65 - m), m = 1..MAX_DEGREE."""
    rng = np.random.default_rng(seed)
    config = make_config(alpha, beta)
    for m in range(1, MAX_DEGREE + 1):
        yield random_patch(rng, m=m, n=MAX_DEGREE + 1 - m, dim=dim, config=config)


def point_params(dom, seed=0):
    """Parameters that pin a single-point route at one degree: seven evenly
    spaced ones with both ends exact, five random ones, two 8 eps past the
    ends (inside the admission slack), two a quarter width past them
    (outside it), and -0.0 where the domain starts at zero."""
    rng = np.random.default_rng(seed)
    inner = np.clip(dom.lo + rng.uniform(size=5) * dom.width, dom.lo, dom.hi)
    ulps = 8 * np.finfo(np.float64).eps * max(1.0, abs(dom.hi))
    quarter = 0.25 * dom.width
    edges = [dom.lo - ulps, dom.hi + ulps, dom.lo - quarter, dom.hi + quarter]
    zero = [-0.0] if dom.lo == 0.0 else []
    return [*dom.grid(7).tolist(), *inner.tolist(), *edges, *zero]


def assert_pinned(route, reference, params, what=""):
    """``route(*p, clamp=c)`` equals ``reference(*p, clamp=c)`` bit for bit
    for every ``p`` in ``params`` and ``c`` in (False, True); where the
    reference raises DomainError, so must the route."""
    for p in params:
        for clamp in (False, True):
            try:
                want = reference(*p, clamp=clamp)
            except DomainError:
                with pytest.raises(DomainError):
                    route(*p, clamp=clamp)
                continue
            assert_bits_equal(route(*p, clamp=clamp), want, f"{what} at {p!r}, clamp={clamp}")


def assert_bits_equal(got, want, what=""):
    """Same shape and the same float64 bit patterns, so -0.0 != 0.0."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype == np.float64, what
    assert got.shape == want.shape, what
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), what


def elevated_floats(points) -> np.ndarray:
    """Degree elevation of a polygon ``(n+1, dim)`` in Python floats: the
    ends copied, inner point ``j`` as ``(j/(n+1)) * P[j-1] + ((n+1-j)/(n+1)) * P[j]``,
    two products and one add per coordinate."""
    rows = np.asarray(points, dtype=np.float64).tolist()
    n = len(rows) - 1
    inner = [[(j / (n + 1)) * a + ((n + 1 - j) / (n + 1)) * b for a, b in zip(rows[j - 1], row)]
             for j, row in enumerate(rows[1:], 1)]
    return np.array([rows[0], *inner, rows[-1]])


def hull_contains(points, query, slack=1e-9):
    """Half-space check: every hull facet must keep ``query`` inside."""
    hull = ConvexHull(points)
    return bool(np.all(hull.equations[:, :-1] @ query + hull.equations[:, -1] <= slack))


def polygon_to_samples_distance(polygon, samples):
    """Max distance from polygon vertices to a densely sampled polyline."""
    a, b = samples[:-1], samples[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    worst = 0.0
    for p in polygon:
        tt = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom, 0.0, 1.0)
        proj = a + tt[:, None] * ab
        worst = max(worst, float(np.sqrt(((p - proj) ** 2).sum(axis=1)).min()))
    return worst


def angle_between(a, b):
    # atan2 of the cross-product magnitude stays accurate for near-parallel
    # vectors, where arccos of the normalized dot loses half the digits
    a3 = np.zeros(3)
    b3 = np.zeros(3)
    a3[: len(a)] = a
    b3[: len(b)] = b
    cross = np.cross(a3, b3)
    return float(np.arctan2(np.linalg.norm(cross), np.dot(a3, b3)))

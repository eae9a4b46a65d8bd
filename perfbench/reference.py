"""Independent reference for shifted-knot Bernstein evaluation.

Written from the defining formulas alone; it imports nothing from
``shiftknot`` (the oracle included). A degree-n basis of the knot-shift
pair ``(alpha, beta)`` lives on

    [lo, hi] = [alpha / (n + beta), (n + alpha) / (n + beta)]

and, in the normalized coordinate ``s = (t - lo) / (hi - lo)``, equals the
classical Bernstein basis ``C(n, k) s**k (1 - s)**(n - k)``.

Float routes are compared with the error bound of :func:`tolerance`, which
grows with ``degree * eps * cond`` where ``cond = max(|lo|, |hi|) / width``
(the condition of the affine map from ``t`` to ``s``; see Farouki & Rajan,
"On the numerical condition of polynomials in Bernstein form", CAGD 4, 1987).
"""

from __future__ import annotations

import math
from fractions import Fraction

EPS = 2.0**-52

# Safety factor of the error bound. At every degree and shift pair the
# workloads use, the bound stays below 1e-11 times the value's scale, so a
# value wrong by 1e-9 relative fails it unless the value is tiny.
TOL_C = 32.0


def domain(alpha: float, beta: float, n: int) -> tuple[float, float]:
    """Float endpoints of the degree-n domain."""
    denom = n + beta
    return alpha / denom, (n + alpha) / denom


def domain_exact(alpha: float, beta: float, n: int) -> tuple[Fraction, Fraction]:
    denom = n + Fraction(beta)
    return Fraction(alpha) / denom, (n + Fraction(alpha)) / denom


def cond(lo: float, hi: float) -> float:
    return max(abs(lo), abs(hi)) / (hi - lo)


def tolerance(n: int, lo: float, hi: float, scale: float = 1.0) -> float:
    """Absolute error bound for a degree-n value of magnitude ``scale``."""
    return TOL_C * max(n, 1) * EPS * cond(lo, hi) * max(scale, 1.0)


def param(lo: float, hi: float, s: float) -> float:
    """Parameter at normalized position ``s``; exact at ``s`` = 0 and 1."""
    if s <= 0.0:
        return lo
    if s >= 1.0:
        return hi
    return min(max(lo + s * (hi - lo), lo), hi)


def unit(lo: float, hi: float, t: float) -> float:
    return (t - lo) / (hi - lo)


def basis_row(n: int, s: float) -> list[float]:
    r = 1.0 - s
    return [math.comb(n, k) * s**k * r ** (n - k) for k in range(n + 1)]


def basis_row_exact(n: int, s: Fraction) -> list[Fraction]:
    r = 1 - s
    return [math.comb(n, k) * s**k * r ** (n - k) for k in range(n + 1)]


def blend(row, points):
    """Convex blend of control points (lists of coordinates) by ``row``."""
    dim = len(points[0])
    return [sum(w * p[c] for w, p in zip(row, points)) for c in range(dim)]


def curve_point(control, s: float) -> list[float]:
    return blend(basis_row(len(control) - 1, s), control)


def curve_point_exact(alpha: float, beta: float, control, t: float) -> list[Fraction]:
    """Exact value of the curve at the float parameter ``t``."""
    n = len(control) - 1
    lo, hi = domain_exact(alpha, beta, n)
    s = (Fraction(t) - lo) / (hi - lo)
    return blend(basis_row_exact(n, s), [[Fraction(c) for c in p] for p in control])


def patch_point(net, su: float, sv: float) -> list[float]:
    row_u = basis_row(len(net) - 1, su)
    row_v = basis_row(len(net[0]) - 1, sv)
    return blend(row_u, [blend(row_v, row) for row in net])


def patch_point_exact(alpha: float, beta: float, net, u: float, v: float) -> list[Fraction]:
    m, n = len(net) - 1, len(net[0]) - 1
    ulo, uhi = domain_exact(alpha, beta, m)
    vlo, vhi = domain_exact(alpha, beta, n)
    row_u = basis_row_exact(m, (Fraction(u) - ulo) / (uhi - ulo))
    row_v = basis_row_exact(n, (Fraction(v) - vlo) / (vhi - vlo))
    exact = [[[Fraction(c) for c in p] for p in row] for row in net]
    return blend(row_u, [blend(row_v, row) for row in exact])


def max_abs(points) -> float:
    return max(abs(c) for p in points for c in p)

"""Exact rational reference implementation.

Everything here mirrors the floating-point paths in pure ``Fraction``
arithmetic: binomials are exact integers, domains and basis values exact
rationals. The module exists to validate the float kernels and to emit the
bundled fixture tables; it is not re-exported by the package root.

Regenerate the fixtures with::

    python -m shiftknot.oracle --output tests/fixtures/oracle_fixtures.json
"""

from __future__ import annotations

import argparse
import json
import math
import random
from fractions import Fraction

from .errors import ConstraintError, DomainError

__all__ = [
    "check_shift",
    "domain_exact",
    "basis_value_exact",
    "basis_row_exact",
    "eval_curve_exact",
    "eval_patch_exact",
    "elevation_matrix_exact",
    "generate_fixtures",
    "write_fixtures",
]

# The bundled fixture file's seed and case counts.
DEFAULT_SEED = 20260816
BASIS_COUNT, CURVE_COUNT, PATCH_COUNT = 100, 60, 40


def _rat(x) -> Fraction:
    try:
        return Fraction(x)
    except (TypeError, ValueError) as exc:
        raise ConstraintError(f"expected a rational value, got {x!r}") from exc


def check_shift(alpha, beta) -> tuple[Fraction, Fraction]:
    """Validate a knot-shift pair in exact arithmetic."""
    alpha, beta = _rat(alpha), _rat(beta)
    if alpha < 0 or beta < 0 or alpha > beta:
        raise ConstraintError(f"need 0 <= alpha <= beta, got ({alpha}, {beta})")
    return alpha, beta


def _check_degree(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConstraintError(f"degree must be a positive integer, got {n!r}")
    return n


def domain_exact(alpha, beta, n: int) -> tuple[Fraction, Fraction]:
    """Exact degree-n parameter interval."""
    alpha, beta = check_shift(alpha, beta)
    n = _check_degree(n)
    return alpha / (n + beta), (n + alpha) / (n + beta)


def basis_value_exact(alpha, beta, n: int, k: int, t) -> Fraction:
    """Exact value of one basis function at a rational parameter."""
    alpha, beta = check_shift(alpha, beta)
    n = _check_degree(n)
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= n:
        raise IndexError(f"basis position {k!r} outside 0..{n}")
    t = _rat(t)
    lo, hi = domain_exact(alpha, beta, n)
    if not lo <= t <= hi:
        raise DomainError(f"parameter {t} outside [{lo}, {hi}] for degree {n}")
    scale = ((n + beta) / n) ** n
    return math.comb(n, k) * scale * (t - lo) ** k * (hi - t) ** (n - k)


def basis_row_exact(alpha, beta, n: int, t) -> list[Fraction]:
    """All ``n + 1`` exact basis values in index order."""
    n = _check_degree(n)
    return [basis_value_exact(alpha, beta, n, k, t) for k in range(n + 1)]


def _check_points(points, what: str) -> list[tuple[Fraction, ...]]:
    pts = [tuple(_rat(c) for c in p) for p in points]
    if len(pts) < 2:
        raise ConstraintError(f"{what} needs at least 2 points")
    dim = len(pts[0])
    if dim < 1 or any(len(p) != dim for p in pts):
        raise ConstraintError(f"{what} points must share one dimension >= 1")
    return pts


def eval_curve_exact(alpha, beta, control, t) -> tuple[Fraction, ...]:
    """Exact curve point: the basis row blended with rational control points."""
    pts = _check_points(control, "control polygon")
    n = len(pts) - 1
    row = basis_row_exact(alpha, beta, n, t)
    dim = len(pts[0])
    return tuple(sum(row[k] * pts[k][c] for k in range(n + 1)) for c in range(dim))


def eval_patch_exact(alpha, beta, net, u, v) -> tuple[Fraction, ...]:
    """Exact tensor-product patch point at rational ``(u, v)``."""
    rows = [_check_points(r, "control net row") for r in net]
    m = len(rows) - 1
    if m < 1:
        raise ConstraintError("control net needs at least 2 rows")
    n = len(rows[0]) - 1
    if any(len(r) != n + 1 for r in rows):
        raise ConstraintError("control net rows must share one length")
    dim = len(rows[0][0])
    row_u = basis_row_exact(alpha, beta, m, u)
    row_v = basis_row_exact(alpha, beta, n, v)
    return tuple(
        sum(
            row_u[i] * row_v[j] * rows[i][j][c]
            for i in range(m + 1)
            for j in range(n + 1)
        )
        for c in range(dim)
    )


def elevation_matrix_exact(n: int) -> list[list[Fraction]]:
    """Exact degree-elevation matrix, shape ``(n + 2, n + 1)``."""
    n = _check_degree(n)
    mat = [[Fraction(0)] * (n + 1) for _ in range(n + 2)]
    for j in range(n + 2):
        if j <= n:
            mat[j][j] = Fraction(n + 1 - j, n + 1)
        if j >= 1:
            mat[j][j - 1] = Fraction(j, n + 1)
    return mat


# ---------------------------------------------------------------------------
# fixture emission


def _rand_shift(rng: random.Random) -> tuple[Fraction, Fraction]:
    den_b = rng.randint(1, 4)
    beta = Fraction(rng.randint(0, 20 * den_b), den_b)
    den_a = rng.randint(1, 4)
    alpha = Fraction(rng.randint(0, int(beta * den_a)), den_a)
    return alpha, beta


def _rand_param(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    steps = rng.randint(1, 64)
    return lo + (hi - lo) * Fraction(rng.randint(0, steps), steps)


def _rand_coord(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-80, 80), 8)


def generate_fixtures() -> dict:
    """Deterministic fixture tables: inputs plus exact values, all as
    numerator/denominator strings ready for JSON."""
    rng = random.Random(DEFAULT_SEED)
    out = {"seed": DEFAULT_SEED, "basis": [], "curve": [], "patch": []}

    for _ in range(BASIS_COUNT):
        alpha, beta = _rand_shift(rng)
        n = rng.randint(1, 8)
        k = rng.randint(0, n)
        lo, hi = domain_exact(alpha, beta, n)
        t = _rand_param(rng, lo, hi)
        value = basis_value_exact(alpha, beta, n, k, t)
        out["basis"].append(
            {
                "alpha": str(alpha),
                "beta": str(beta),
                "n": n,
                "k": k,
                "t": str(t),
                "value": str(value),
            }
        )

    for _ in range(CURVE_COUNT):
        alpha, beta = _rand_shift(rng)
        n = rng.randint(1, 8)
        dim = rng.choice([2, 3])
        control = [[_rand_coord(rng) for _ in range(dim)] for _ in range(n + 1)]
        lo, hi = domain_exact(alpha, beta, n)
        t = _rand_param(rng, lo, hi)
        value = eval_curve_exact(alpha, beta, control, t)
        out["curve"].append(
            {
                "alpha": str(alpha),
                "beta": str(beta),
                "degree": n,
                "control": [[str(c) for c in p] for p in control],
                "t": str(t),
                "value": [str(c) for c in value],
            }
        )

    for _ in range(PATCH_COUNT):
        alpha, beta = _rand_shift(rng)
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        net = [
            [[_rand_coord(rng) for _ in range(3)] for _ in range(n + 1)]
            for _ in range(m + 1)
        ]
        lo_u, hi_u = domain_exact(alpha, beta, m)
        lo_v, hi_v = domain_exact(alpha, beta, n)
        u = _rand_param(rng, lo_u, hi_u)
        v = _rand_param(rng, lo_v, hi_v)
        value = eval_patch_exact(alpha, beta, net, u, v)
        out["patch"].append(
            {
                "alpha": str(alpha),
                "beta": str(beta),
                "m": m,
                "n": n,
                "net": [[[str(c) for c in p] for p in row] for row in net],
                "u": str(u),
                "v": str(v),
                "value": [str(c) for c in value],
            }
        )

    return out


def write_fixtures(path: str) -> dict:
    """Emit :func:`generate_fixtures` as JSON and return the table."""
    table = generate_fixtures()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m shiftknot.oracle",
        description="Emit the exact-arithmetic fixture tables as JSON.",
    )
    parser.add_argument("--output", required=True, help="destination JSON path")
    args = parser.parse_args(argv)
    table = write_fixtures(args.output)
    total = sum(len(table[kind]) for kind in ("basis", "curve", "patch"))
    print(f"wrote {total} fixtures to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

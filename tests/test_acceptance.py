"""Top-level acceptance battery.

Nine numbered checks cover the library's core contracts end to end: basis
partition of unity and endpoint behavior, classical reduction, agreement of
every evaluation route, degree elevation, endpoint derivatives, tensor-patch
properties, exact-arithmetic agreement on the bundled fixtures, and the
figure-producing CLI path. Each check prints one verdict line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import json
import time
from fractions import Fraction

import numpy as np

from shiftknot import (
    Curve,
    SurfacePatch,
    basis_row,
    basis_rows,
    domain,
    elevate,
    elevate_many,
    elevation_matrix,
    endpoint_derivative,
    eval_decasteljau,
    eval_direct,
    eval_matrix_form,
    eval_patch,
    eval_patch_decasteljau,
    isoparam_u,
    isoparam_v,
    make_config,
    sample_curve,
    sample_patch,
)
from shiftknot.oracle import basis_row_exact, elevation_matrix_exact

import _classical
from _helpers import (
    angle_between,
    hull_contains,
    polygon_to_samples_distance,
    random_config,
    random_curve,
    random_patch,
    run_shiftknot,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance check {num} failed: {detail}"


def test_acceptance_1_partition_of_unity(oracle_fixtures):
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(200):
        cfg = random_config(rng, beta_max=20.0)
        n = int(rng.integers(1, 13))
        cases.append((cfg, n))

    start = time.perf_counter()
    worst = 0.0
    for cfg, n in cases:
        rows = basis_rows(cfg, n, domain(cfg, n).grid(100))
        worst = max(worst, float(np.abs(rows.sum(axis=1) - 1.0).max()))
    elapsed = time.perf_counter() - start

    exact_ok = True
    for case in oracle_fixtures["basis"][:50]:
        row = basis_row_exact(
            Fraction(case["alpha"]), Fraction(case["beta"]), case["n"], Fraction(case["t"])
        )
        exact_ok = exact_ok and sum(row) == 1

    ok = worst <= 1e-12 and exact_ok and elapsed < 5.0
    _verdict(
        1,
        ok,
        f"float row-sum deviation {worst:.2e} (limit 1e-12), "
        f"50 exact sums {'all 1' if exact_ok else 'NOT 1'}, sweep {elapsed:.2f}s (limit 5s)",
    )


def test_acceptance_2_endpoint_interpolation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        cfg = random_config(rng, beta_max=20.0)
        n = int(rng.integers(1, 13))
        dom = domain(cfg, n)
        unit_lo = np.zeros(n + 1)
        unit_lo[0] = 1.0
        worst = max(worst, float(np.abs(basis_row(cfg, n, dom.lo) - unit_lo).max()))
        worst = max(worst, float(np.abs(basis_row(cfg, n, dom.hi) - unit_lo[::-1]).max()))
    ok = worst <= 1e-14
    _verdict(2, ok, f"endpoint unit-row deviation {worst:.2e} (limit 1e-14)")


def test_acceptance_3_classical_reduction():
    rng = np.random.default_rng(103)
    cfg = make_config(0, 0)
    worst_basis = 0.0
    worst_comp = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        t = float(rng.uniform())
        worst_basis = max(
            worst_basis,
            float(np.abs(basis_row(cfg, n, t) - _classical.bernstein_row(n, t)).max()),
        )
        pts = rng.uniform(-5, 5, size=(n + 1, 2))
        curve = Curve(cfg, pts)
        want = _classical.decasteljau(pts, t)
        worst_comp = max(worst_comp, float(np.abs(eval_decasteljau(curve, t) - want).max()))
        worst_comp = max(
            worst_comp,
            float(np.abs(eval_matrix_form(curve, t) - _classical.matrix_pyramid(pts, t)).max()),
        )
        worst_comp = max(
            worst_comp,
            float(np.abs(elevate(curve).control - _classical.elevate(pts)).max()),
        )
        net = rng.uniform(-5, 5, size=(3, 4, 3))
        u, v = rng.uniform(size=2)
        worst_comp = max(
            worst_comp,
            float(
                np.abs(
                    eval_patch(SurfacePatch(cfg, net), u, v) - _classical.eval_patch(net, u, v)
                ).max()
            ),
        )
    ok = worst_basis <= 1e-14 and worst_comp <= 1e-12
    _verdict(
        3,
        ok,
        f"zero-shift reduction: basis {worst_basis:.2e} (limit 1e-14), "
        f"composites {worst_comp:.2e} (limit 1e-12)",
    )


def test_acceptance_4_evaluation_route_agreement():
    rng = np.random.default_rng(104)
    worst_curve = 0.0
    for _ in range(500):
        c = random_curve(rng, degree=int(rng.integers(1, 13)))
        t = c.domain.from_unit(rng.uniform())
        a = eval_direct(c, t)
        b = eval_decasteljau(c, t)
        m = eval_matrix_form(c, t)
        worst_curve = max(
            worst_curve,
            float(np.abs(a - b).max()),
            float(np.abs(a - m).max()),
            float(np.abs(b - m).max()),
        )

    degree_pairs = [(m, n) for m in range(1, 7) for n in range(1, 7)]
    worst_patch = 0.0
    for i in range(200):
        m, n = degree_pairs[i % len(degree_pairs)]
        p = random_patch(rng, m=m, n=n)
        u = p.domain_u.from_unit(rng.uniform())
        v = p.domain_v.from_unit(rng.uniform())
        worst_patch = max(
            worst_patch,
            float(np.abs(eval_patch(p, u, v) - eval_patch_decasteljau(p, u, v)).max()),
        )
    ok = worst_curve <= 1e-10 and worst_patch <= 1e-10
    _verdict(
        4,
        ok,
        f"curve routes {worst_curve:.2e}, patch routes {worst_patch:.2e} "
        f"(limit 1e-10, 500 curves, 200 patches over all degree pairs up to 6)",
    )


def test_acceptance_5_degree_elevation():
    rng = np.random.default_rng(105)

    endpoints_exact = True
    for _ in range(50):
        c = random_curve(rng)
        e = elevate(c)
        endpoints_exact = endpoints_exact and bool(
            np.array_equal(e.control[0], c.control[0])
            and np.array_equal(e.control[-1], c.control[-1])
        )

    rows_exact = all(
        all(sum(row) == 1 for row in elevation_matrix_exact(n)) for n in range(1, 13)
    )

    worst_match = 0.0
    c = random_curve(rng, degree=5, dim=2)
    e = elevate(c)
    for s in np.linspace(0.0, 1.0, 50):
        p = eval_decasteljau(c, c.domain.from_unit(s))
        q = eval_decasteljau(e, e.domain.from_unit(s))
        worst_match = max(worst_match, float(np.abs(p - q).max()))

    base = random_curve(rng, degree=4, dim=2)

    def polygon_distance(levels):
        lifted = elevate_many(base, levels)
        samples = sample_curve(lifted, lifted.domain.grid(400))
        return polygon_to_samples_distance(np.asarray(lifted.control), samples)

    d5 = polygon_distance(5)
    d20 = polygon_distance(20)

    ok = endpoints_exact and rows_exact and worst_match <= 1e-10 and d20 < d5
    _verdict(
        5,
        ok,
        f"endpoints exact: {endpoints_exact}, exact row sums: {rows_exact}, "
        f"50-parameter match {worst_match:.2e} (limit 1e-10), "
        f"polygon distance l=20 {d20:.3f} < l=5 {d5:.3f}",
    )


def test_acceptance_6_endpoint_derivatives():
    rng = np.random.default_rng(106)
    formula_exact = True
    worst_rel = 0.0
    worst_angle = 0.0
    for _ in range(100):
        c = random_curve(rng)
        factor = c.degree + c.config.beta
        formula_exact = formula_exact and bool(
            np.array_equal(endpoint_derivative(c, "lo"), factor * (c.control[1] - c.control[0]))
            and np.array_equal(
                endpoint_derivative(c, "hi"), factor * (c.control[-1] - c.control[-2])
            )
        )
        dom = c.domain
        h = 1e-7 * dom.width
        for end, t0, sign in (("lo", dom.lo, 1.0), ("hi", dom.hi, -1.0)):
            exact = endpoint_derivative(c, end)
            fd = sign * (eval_decasteljau(c, t0 + sign * h) - eval_decasteljau(c, t0)) / h
            rel = float(np.linalg.norm(fd - exact) / max(np.linalg.norm(exact), 1e-12))
            worst_rel = max(worst_rel, rel)
        leg_lo = c.control[1] - c.control[0]
        leg_hi = c.control[-1] - c.control[-2]
        if np.linalg.norm(leg_lo) > 1e-9:
            worst_angle = max(worst_angle, angle_between(endpoint_derivative(c, "lo"), leg_lo))
        if np.linalg.norm(leg_hi) > 1e-9:
            worst_angle = max(worst_angle, angle_between(endpoint_derivative(c, "hi"), leg_hi))
    ok = formula_exact and worst_rel <= 1e-4 and worst_angle <= 1e-8
    _verdict(
        6,
        ok,
        f"closed form exact: {formula_exact}, finite-difference rel err {worst_rel:.2e} "
        f"(limit 1e-4), tangency angle {worst_angle:.2e} rad (limit 1e-8)",
    )


def test_acceptance_7_surface_properties():
    rng = np.random.default_rng(107)

    worst_corner = 0.0
    for _ in range(50):
        p = random_patch(rng)
        du, dv = p.domain_u, p.domain_v
        for (u, v), corner in (
            ((du.lo, dv.lo), p.net[0, 0]),
            ((du.hi, dv.lo), p.net[-1, 0]),
            ((du.lo, dv.hi), p.net[0, -1]),
            ((du.hi, dv.hi), p.net[-1, -1]),
        ):
            worst_corner = max(worst_corner, float(np.abs(eval_patch(p, u, v) - corner).max()))

    worst_affine = 0.0
    for _ in range(20):
        p = random_patch(rng)
        A = rng.uniform(-2, 2, size=(3, 3))
        b = rng.uniform(-5, 5, size=3)
        mapped = SurfacePatch(p.config, p.net @ A.T + b)
        u = p.domain_u.from_unit(rng.uniform())
        v = p.domain_v.from_unit(rng.uniform())
        worst_affine = max(
            worst_affine,
            float(np.abs(eval_patch(mapped, u, v) - (A @ eval_patch(p, u, v) + b)).max()),
        )

    hull_ok = True
    for _ in range(100):
        p = random_patch(rng)
        pts = sample_patch(p, p.domain_u.grid(5), p.domain_v.grid(5)).reshape(-1, 3)
        flat = p.net.reshape(-1, 3)
        hull_ok = hull_ok and all(hull_contains(flat, q, slack=1e-9) for q in pts)

    worst_iso = 0.0
    for _ in range(5):
        p = random_patch(rng)
        for sv in np.linspace(0, 1, 10):
            v = p.domain_v.from_unit(sv)
            u_line = isoparam_u(p, v)
            for su in np.linspace(0, 1, 10):
                u = p.domain_u.from_unit(su)
                ref = eval_patch(p, u, v)
                worst_iso = max(
                    worst_iso,
                    float(np.abs(eval_decasteljau(u_line, u) - ref).max()),
                    float(np.abs(eval_decasteljau(isoparam_v(p, u), v) - ref).max()),
                )

    ok = (
        worst_corner <= 1e-14
        and worst_affine <= 1e-10
        and hull_ok
        and worst_iso <= 1e-12
    )
    _verdict(
        7,
        ok,
        f"corners {worst_corner:.2e} (limit 1e-14), affine {worst_affine:.2e} (limit 1e-10), "
        f"hull containment: {hull_ok}, isoparametric {worst_iso:.2e} (limit 1e-12)",
    )


def test_acceptance_8_exact_reference_agreement(oracle_fixtures):
    F = Fraction
    worst = 0.0
    count = 0
    for case in oracle_fixtures["basis"]:
        cfg = make_config(float(F(case["alpha"])), float(F(case["beta"])))
        got = basis_row(cfg, case["n"], float(F(case["t"])), clamp=True)[case["k"]]
        worst = max(worst, abs(got - float(F(case["value"]))))
        count += 1
    for case in oracle_fixtures["curve"]:
        cfg = make_config(float(F(case["alpha"])), float(F(case["beta"])))
        curve = Curve(cfg, [[float(F(c)) for c in p] for p in case["control"]])
        got = eval_decasteljau(curve, float(F(case["t"])), clamp=True)
        want = np.array([float(F(c)) for c in case["value"]])
        worst = max(worst, float(np.abs(got - want).max()))
        count += 1
    for case in oracle_fixtures["patch"]:
        cfg = make_config(float(F(case["alpha"])), float(F(case["beta"])))
        patch = SurfacePatch(cfg, [[[float(F(c)) for c in p] for p in row] for row in case["net"]])
        got = eval_patch(patch, float(F(case["u"])), float(F(case["v"])), clamp=True)
        want = np.array([float(F(c)) for c in case["value"]])
        worst = max(worst, float(np.abs(got - want).max()))
        count += 1
    ok = worst <= 1e-12 and count >= 200
    _verdict(
        8, ok, f"{count} bundled exact fixtures, float deviation {worst:.2e} (limit 1e-12)"
    )


def test_acceptance_9_cli_basis_figure():
    def run(*argv):
        proc = run_shiftknot(*argv)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    svg = run("basis", "--degree", "3", "--alpha", "4", "--beta", "6", "--format", "svg")
    polylines = svg.count("<polyline")

    csv = run("basis", "--degree", "3", "--alpha", "4", "--beta", "6", "--format", "csv")
    lines = csv.strip().splitlines()[1:]
    ts = [float(line.split(",")[0]) for line in lines]
    support_ok = min(ts) == 4.0 / 9.0 and max(ts) == 7.0 / 9.0

    sums = {}
    for line in lines:
        t, _, value = line.split(",")
        sums[t] = sums.get(t, 0.0) + float(value)
    worst_sum = max(abs(s - 1.0) for s in sums.values())

    classical_csv = run(
        "basis", "--degree", "3", "--alpha", "0", "--beta", "0",
        "--format", "csv", "--samples", "50",
    )
    worst_classical = 0.0
    for line in classical_csv.strip().splitlines()[1:]:
        t, k, value = line.split(",")
        want = _classical.bernstein_row(3, float(t))[int(k)]
        worst_classical = max(worst_classical, abs(float(value) - want))

    ok = (
        polylines == 4
        and support_ok
        and worst_sum <= 1e-10
        and worst_classical <= 1e-12
    )
    _verdict(
        9,
        ok,
        f"svg polylines {polylines}/4, support [4/9, 7/9] exact: {support_ok}, "
        f"csv row sums off by {worst_sum:.2e} (limit 1e-10), "
        f"zero-shift csv vs classical {worst_classical:.2e}",
    )

"""The three workloads: inputs made from a seed, one op, and its checks.

Every workload spans the classical shift pair (0, 0), a moderate pair and a
wide one, and all ops within a workload do the same work. The program only
sees the generated inputs: curve and patch files for the CLI, arrays and
floats for the library.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np

from shiftknot import basis as sk_basis
from shiftknot import cli as sk_cli
from shiftknot import curve as sk_curve
from shiftknot import surface as sk_surface

import checks
import reference as ref
from checks import CheckError

PAIRS = ((0.0, 0.0), (4.0, 6.0), (1e3, 1e4))
SPAN = 10.0
# Reference rows compared per output and op; the first is also compared in
# exact rational arithmetic.
SUBSAMPLE = 8


def _domain(program_dom, alpha: float, beta: float, n: int) -> tuple[float, float]:
    """The program's domain endpoints, after checking them against the
    reference. Exact endpoint checks then run at the program's own ends."""
    return _endpoints(program_dom.lo, program_dom.hi, alpha, beta, n, "domain")


def _endpoints(lo: float, hi: float, alpha: float, beta: float, n: int, what: str):
    rlo, rhi = ref.domain(alpha, beta, n)
    tol = 4 * ref.EPS * max(abs(rlo), abs(rhi))
    if not (abs(lo - rlo) <= tol and abs(hi - rhi) <= tol):
        raise CheckError(f"{what} [{lo!r}, {hi!r}] differs from the reference [{rlo!r}, {rhi!r}]")
    return lo, hi


def _grid(ts, alpha: float, beta: float, n: int, what: str) -> None:
    """Samples rise from one end of the degree-n domain to the other."""
    _endpoints(ts[0], ts[-1], alpha, beta, n, f"{what} sample range")
    if not np.all(np.diff(ts) > 0):
        raise CheckError(f"{what}: samples do not rise through the domain")


class CliTables:
    """One op is one pass of nine in-process ``shiftknot.cli.main(argv)``
    calls, each writing its output with ``--output``; the tables have about
    five thousand rows.
    Curves, basis tables and patches each use one shift pair, so the pass
    spans all three."""

    name = "cli-tables"
    CURVE_PAIR, BASIS_PAIR, PATCH_PAIR = PAIRS[1], PAIRS[2], PAIRS[0]
    CURVE_DEGREE = 5
    CURVE_SAMPLES = 5_000
    BASIS_DEGREE = 3
    BASIS_SAMPLES = 1_250
    PATCH_DEGREES = (3, 4)
    PATCH_SAMPLES = 71
    LEVELS = 2

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.seed = seed
        indir, outdir = workdir / "in", workdir / "out"
        indir.mkdir()
        outdir.mkdir()
        n, (pm, pn) = self.CURVE_DEGREE, self.PATCH_DEGREES
        alpha, beta = self.CURVE_PAIR
        control = [[rng.uniform(-SPAN, SPAN) for _ in range(3)] for _ in range(n + 1)]
        lo, hi = ref.domain(alpha, beta, n)
        curve = {"alpha": alpha, "beta": beta, "control": control, "scale": SPAN,
                 "t": ref.param(lo, hi, rng.uniform(0.05, 0.95))}
        curve_file = indir / "curve.json"
        curve_file.write_text(json.dumps(
            {"alpha": alpha, "beta": beta, "degree": n, "control": control}))
        alpha, beta = self.PATCH_PAIR
        net = [[[rng.uniform(-SPAN, SPAN) for _ in range(3)] for _ in range(pn + 1)]
               for _ in range(pm + 1)]
        patch = {"alpha": alpha, "beta": beta, "net": net, "scale": SPAN}
        patch_file = indir / "patch.json"
        patch_file.write_text(json.dumps(
            {"alpha": alpha, "beta": beta, "degrees": [pm, pn], "control": net}))
        alpha, beta = self.BASIS_PAIR
        basis = {"alpha": alpha, "beta": beta}

        basis_argv = ["basis", "--alpha", repr(alpha), "--beta", repr(beta), "--degree",
                      str(self.BASIS_DEGREE), "--samples", str(self.BASIS_SAMPLES)]
        curve_argv = ["curve-sample", str(curve_file), "--samples", str(self.CURVE_SAMPLES)]
        patch_argv = ["surface-sample", str(patch_file), "--samples", str(self.PATCH_SAMPLES)]
        self.calls = []
        for case, kind, argv in (
            (curve, "curve_csv", [*curve_argv, "--algorithm", "direct", "--format", "csv"]),
            (curve, "curve_json", [*curve_argv, "--algorithm", "decasteljau", "--format", "json"]),
            (basis, "basis_csv", [*basis_argv, "--format", "csv"]),
            (basis, "basis_svg", [*basis_argv, "--format", "svg"]),
            (patch, "surface_csv", [*patch_argv, "--format", "csv"]),
            (patch, "surface_json", [*patch_argv, "--format", "json"]),
            (patch, "surface_svg", [*patch_argv, "--format", "svg"]),
            (curve, "curve_eval",
             ["curve-eval", str(curve_file), repr(curve["t"]), "--algorithm", "matrix"]),
            (curve, "elevate", ["elevate", str(curve_file), "--levels", str(self.LEVELS)]),
        ):
            path = outdir / f"{kind}.out"
            self.calls.append((case, kind, [*argv, "--output", str(path)], path))
        self.evals_per_op = (
            2 * self.CURVE_SAMPLES + 2 * self.BASIS_SAMPLES + 3 * self.PATCH_SAMPLES**2 + 1)
        self.digests = None
        self.values_per_op = None

    def op(self, index: int):
        for _, _, argv, _ in self.calls:
            code = sk_cli.main(argv)
            if code != 0:
                raise RuntimeError(f"shiftknot {' '.join(argv)} exited with status {code}")

    def check(self, out, index: int) -> None:
        rng = random.Random(self.seed * 1_000_003 + index)
        # Each output is removed once read, so every op must write its own.
        written = []
        for _, _, _, path in self.calls:
            written.append(path.read_bytes() if path.exists() else None)
            path.unlink(missing_ok=True)
        for (_, _, _, path), data in zip(self.calls, written):
            if data is None:
                raise CheckError(f"{path.name}: the call wrote no output")
        digests, values = [], 0
        for (case, kind, _, path), data in zip(self.calls, written):
            digests.append(checks.digest(data))
            values += getattr(self, "_" + kind)(case, data.decode("utf-8"), rng)
        if self.digests is None:
            self.digests, self.values_per_op = digests, values
            return
        for (_, kind, _, path), a, b in zip(self.calls, digests, self.digests):
            if a != b:
                raise CheckError(f"{path.name}: a repeated invocation wrote different bytes")

    # One method per call kind: parse the output back, check it, return the
    # count of numbers written.

    def _curve_rows(self, case, ts, pts, rng, what):
        n = self.CURVE_DEGREE
        alpha, beta, control = case["alpha"], case["beta"], case["control"]
        lo, hi = ts[0], ts[-1]
        _grid(ts, alpha, beta, n, what)
        checks.equal(pts[0], control[0], f"{what}: point at the low end")
        checks.equal(pts[-1], control[-1], f"{what}: point at the high end")
        tol = ref.tolerance(n, lo, hi, case["scale"])
        checks.in_box(pts, control, tol, what)
        rows = rng.sample(range(len(ts)), SUBSAMPLE)
        for i in rows:
            checks.close(pts[i], ref.curve_point(control, ref.unit(lo, hi, ts[i])), tol, what)
        checks.close_exact(
            pts[rows[0]], ref.curve_point_exact(alpha, beta, control, ts[rows[0]]), tol, what)
        return tol

    def _curve_csv(self, case, text, rng):
        arr = checks.parse_csv(text, "t,x,y,z", self.CURVE_SAMPLES)
        self._curve_rows(case, arr[:, 0], arr[:, 1:], rng, "curve-sample csv")
        case["curve_csv"] = arr
        return arr.size

    def _curve_json(self, case, text, rng):
        doc = checks.parse_json(text)
        arr = checks.json_table(doc, ("t", "x", "y", "z"), self.CURVE_SAMPLES)
        tol = self._curve_rows(case, arr[:, 0], arr[:, 1:], rng, "curve-sample json")
        if doc.get("domain") != [arr[0, 0], arr[-1, 0]]:
            raise CheckError("curve-sample json: domain field disagrees with the samples")
        direct = case["curve_csv"]
        checks.equal(arr[:, 0], direct[:, 0], "curve-sample: parameters of the two routes")
        checks.close(arr[:, 1:], direct[:, 1:], tol, "curve-sample: decasteljau vs direct")
        return arr.size + 2

    def _basis_csv(self, case, text, rng):
        n, count = self.BASIS_DEGREE, self.BASIS_SAMPLES
        arr = checks.parse_csv(text, "t,k,value", count * (n + 1))
        ts = arr[:, 0].reshape(count, n + 1)
        if np.any(ts != ts[:, :1]) or np.any(arr[:, 1] != np.tile(np.arange(n + 1), count)):
            raise CheckError("basis csv: rows are not grouped by parameter and index")
        ts, rows = ts[:, 0], arr[:, 2].reshape(count, n + 1)
        lo, hi = ts[0], ts[-1]
        _grid(ts, case["alpha"], case["beta"], n, "basis csv")
        tol = ref.tolerance(n, lo, hi)
        checks.basis_rows(rows, tol, "basis csv")
        picks = rng.sample(range(count), SUBSAMPLE)
        for i in picks:
            checks.close(rows[i], ref.basis_row(n, ref.unit(lo, hi, ts[i])), tol, "basis csv")
        elo, ehi = ref.domain_exact(case["alpha"], case["beta"], n)
        s = (Fraction(ts[picks[0]]) - elo) / (ehi - elo)
        checks.close_exact(rows[picks[0]], ref.basis_row_exact(n, s), tol, "basis csv")
        case["basis_domain"] = (lo, hi)
        return arr.size

    def _basis_svg(self, case, text, rng):
        n, count = self.BASIS_DEGREE, self.BASIS_SAMPLES
        attrs, polys = checks.parse_svg(text, n + 1, count)
        lo, hi = case["basis_domain"]
        if attrs.get("domain") != [lo, hi]:
            raise CheckError("basis svg: data-domain disagrees with the csv domain")
        to_px = checks.svg_map((lo, hi, 0.0, 1.0))
        for i in rng.sample(range(count), SUBSAMPLE):
            t = ref.param(lo, hi, i / (count - 1))
            row = ref.basis_row(n, ref.unit(lo, hi, t))
            for k in range(n + 1):
                checks.close(polys[k][i], to_px(t, row[k]), checks.SVG_TOL, "basis svg")
        return 2 * (n + 1) * count + 2

    def _patch_grid(self, case, us, vs, pts, rng, what):
        m, n = self.PATCH_DEGREES
        alpha, beta, net = case["alpha"], case["beta"], case["net"]
        _grid(us, alpha, beta, m, what + " u")
        _grid(vs, alpha, beta, n, what + " v")
        for i, j in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            checks.equal(pts[i, j], net[i][j], f"{what}: corner point")
        tol = max(ref.tolerance(m + n, us[0], us[-1], case["scale"]),
                  ref.tolerance(m + n, vs[0], vs[-1], case["scale"]))
        checks.in_box(pts, net, tol, what)
        for _ in range(SUBSAMPLE):
            i, j = rng.randrange(len(us)), rng.randrange(len(vs))
            su, sv = ref.unit(us[0], us[-1], us[i]), ref.unit(vs[0], vs[-1], vs[j])
            checks.close(pts[i, j], ref.patch_point(net, su, sv), tol, what)
        checks.close_exact(
            pts[i, j], ref.patch_point_exact(alpha, beta, net, us[i], vs[j]), tol, what)

    def _surface_csv(self, case, text, rng):
        count = self.PATCH_SAMPLES
        arr = checks.parse_csv(text, "u,v,x,y,z", count * count)
        grid = arr.reshape(count, count, 5)
        us, vs = grid[:, 0, 0], grid[0, :, 1]
        if np.any(grid[:, :, 0] != us[:, None]) or np.any(grid[:, :, 1] != vs[None, :]):
            raise CheckError("surface csv: rows do not form the u x v grid")
        self._patch_grid(case, us, vs, grid[:, :, 2:], rng, "surface csv")
        case["surface_csv"] = arr
        return arr.size

    def _surface_json(self, case, text, rng):
        doc = checks.parse_json(text)
        count = self.PATCH_SAMPLES
        arr = checks.json_table(doc, ("u", "v", "x", "y", "z"), count * count)
        checks.equal(arr, case["surface_csv"], "surface-sample json vs csv")
        grid = arr.reshape(count, count, 5)
        us, vs = grid[:, 0, 0], grid[0, :, 1]
        if doc.get("domain_u") != [us[0], us[-1]] or doc.get("domain_v") != [vs[0], vs[-1]]:
            raise CheckError("surface-sample json: domain fields disagree with the samples")
        self._patch_grid(case, us, vs, grid[:, :, 2:], rng, "surface json")
        return arr.size + 4

    def _surface_svg(self, case, text, rng):
        count = self.PATCH_SAMPLES
        attrs, polys = checks.parse_svg(text, 2 * count, count)
        grid = case["surface_csv"].reshape(count, count, 5)
        us, vs = grid[:, 0, 0], grid[0, :, 1]
        if attrs.get("domain-u") != [us[0], us[-1]] or attrs.get("domain-v") != [vs[0], vs[-1]]:
            raise CheckError("surface svg: data-domain attributes disagree with the csv")
        flat = np.asarray(case["net"]).reshape(-1, 3)
        to_px = checks.svg_map((flat[:, 0].min(), flat[:, 0].max(),
                                flat[:, 1].min(), flat[:, 1].max()))
        for _ in range(SUBSAMPLE):
            i, j = rng.randrange(count), rng.randrange(count)
            x, y, _z = ref.patch_point(case["net"], ref.unit(us[0], us[-1], us[i]),
                                       ref.unit(vs[0], vs[-1], vs[j]))
            want = to_px(x, y)
            checks.close(polys[i][j], want, checks.SVG_TOL, "surface svg u-line")
            checks.close(polys[count + j][i], want, checks.SVG_TOL, "surface svg v-line")
        return 2 * 2 * count * count + 4

    def _curve_eval(self, case, text, rng):
        doc = checks.parse_json(text)
        point = doc.get("point")
        if (doc.get("t") != case["t"] or doc.get("algorithm") != "matrix"
                or not isinstance(point, list) or len(point) != 3):
            raise CheckError("curve-eval: output does not echo the request")
        n, control = self.CURVE_DEGREE, case["control"]
        lo, hi = case["curve_csv"][0, 0], case["curve_csv"][-1, 0]
        tol = ref.tolerance(n, lo, hi, case["scale"])
        checks.close(point, ref.curve_point(control, ref.unit(lo, hi, case["t"])), tol, "curve-eval")
        checks.close_exact(point, ref.curve_point_exact(
            case["alpha"], case["beta"], control, case["t"]), tol, "curve-eval")
        return 4

    def _elevate(self, case, text, rng):
        doc = checks.parse_json(text)
        n, control = self.CURVE_DEGREE + self.LEVELS, case["control"]
        raised = doc.get("control")
        if (doc.get("alpha") != case["alpha"] or doc.get("beta") != case["beta"]
                or doc.get("degree") != n or not isinstance(raised, list) or len(raised) != n + 1):
            raise CheckError("elevate: output is not the elevated curve file")
        checks.equal(raised[0], control[0], "elevate: first control point")
        checks.equal(raised[-1], control[-1], "elevate: last control point")
        lo, hi = ref.domain(case["alpha"], case["beta"], n)
        tol = ref.tolerance(n, lo, hi, case["scale"])
        for s in (0.1, 0.3, 0.5, 0.7, 0.9, rng.random()):
            checks.close(ref.curve_point(raised, s), ref.curve_point(control, s), tol,
                         "elevate: traced point at equal normalized position")
        return 3 + 3 * (n + 1)


class LibBatch:
    """One op is one pass of large-array library calls per shift pair."""

    name = "lib-batch"
    DEGREE = 10
    SAMPLES = 10_000
    MATRIX_STRIDE = 100
    NET = 7
    GRID = 160

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.cases = []
        for alpha, beta in PAIRS:
            config = sk_basis.make_config(alpha, beta)
            curve = sk_curve.Curve(config, rng.uniform(-SPAN, SPAN, (self.DEGREE + 1, 3)))
            patch = sk_surface.SurfacePatch(
                config, rng.uniform(-SPAN, SPAN, (self.NET, self.NET, 3)))
            lo, hi = _domain(curve.domain, alpha, beta, self.DEGREE)
            s = np.sort(rng.uniform(0.0, 1.0, self.SAMPLES))
            ts = np.clip(lo + s * (hi - lo), lo, hi)
            ts[0], ts[-1] = lo, hi
            pick = np.r_[np.arange(0, self.SAMPLES - 1, self.MATRIX_STRIDE), self.SAMPLES - 1]
            ulo, uhi = _domain(patch.domain_u, alpha, beta, self.NET - 1)
            us = np.linspace(ulo, uhi, self.GRID)
            self.cases.append({
                "alpha": alpha, "beta": beta, "config": config, "curve": curve,
                "patch": patch, "ts": ts, "pick": pick, "ts_matrix": ts[pick], "us": us,
                "control": curve.control.tolist(), "net": patch.net.tolist(),
                "tol": ref.tolerance(self.DEGREE, lo, hi, SPAN),
                "rtol": ref.tolerance(self.DEGREE, lo, hi),
                "ptol": ref.tolerance(2 * (self.NET - 1), ulo, uhi, SPAN),
            })
        self.evals_per_op = len(PAIRS) * (3 * self.SAMPLES + self.GRID**2 + len(pick))
        self.values_per_op = None
        self.first = None

    def op(self, index: int):
        out = []
        for c in self.cases:
            out.append((
                sk_curve.sample_curve(c["curve"], c["ts"], algorithm="direct"),
                sk_curve.sample_curve(c["curve"], c["ts"], algorithm="decasteljau"),
                sk_basis.basis_rows(c["config"], self.DEGREE, c["ts"]),
                sk_surface.sample_patch(c["patch"], c["us"], c["us"]),
                sk_curve.sample_curve(c["curve"], c["ts_matrix"], algorithm="matrix"),
            ))
        return out

    def check(self, out, index: int) -> None:
        rng = random.Random(self.seed * 1_000_003 + index)
        for c, (direct, pyramid, rows, grid, matrix) in zip(self.cases, out):
            control, tol = c["control"], c["tol"]
            ts, lo, hi = c["ts"], c["ts"][0], c["ts"][-1]
            for what, pts in (("direct", direct), ("decasteljau", pyramid), ("matrix", matrix)):
                checks.equal(pts[0], control[0], f"sample_curve {what}: low end")
                checks.equal(pts[-1], control[-1], f"sample_curve {what}: high end")
                checks.in_box(pts, control, tol, f"sample_curve {what}")
            checks.close(pyramid, direct, tol, "sample_curve decasteljau vs direct")
            checks.close(matrix, direct[c["pick"]], tol, "sample_curve matrix vs direct")
            checks.basis_rows(rows, c["rtol"], "basis_rows")
            picks = rng.sample(range(self.SAMPLES), SUBSAMPLE)
            for i in picks:
                s = ref.unit(lo, hi, ts[i])
                checks.close(direct[i], ref.curve_point(control, s), tol, "sample_curve direct")
                checks.close(rows[i], ref.basis_row(self.DEGREE, s), c["rtol"], "basis_rows")
            checks.close_exact(direct[picks[0]], ref.curve_point_exact(
                c["alpha"], c["beta"], control, ts[picks[0]]), tol, "sample_curve direct")
            net, us = c["net"], c["us"]
            for i, j in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
                checks.equal(grid[i, j], net[i][j], "sample_patch corner")
            checks.in_box(grid, net, c["ptol"], "sample_patch")
            for _ in range(SUBSAMPLE):
                i, j = rng.randrange(self.GRID), rng.randrange(self.GRID)
                su, sv = ref.unit(us[0], us[-1], us[i]), ref.unit(us[0], us[-1], us[j])
                checks.close(grid[i, j], ref.patch_point(net, su, sv), c["ptol"], "sample_patch")
            checks.close_exact(grid[i, j], ref.patch_point_exact(
                c["alpha"], c["beta"], net, us[i], us[j]), c["ptol"], "sample_patch")
        if self.first is None:
            self.first = out
            self.values_per_op = sum(a.size for case in out for a in case)
        elif not all(np.array_equal(a, b) for new, old in zip(out, self.first)
                     for a, b in zip(new, old)):
            raise CheckError("a repeated library call returned different values")


class LibPoint:
    """One op evaluates one seeded parameter point, per shift pair, through
    every single-point route."""

    name = "lib-point"
    DEGREE = 3
    SLOTS = 1024
    EXACT_EVERY = 32
    ROUTES = 6

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.seed = seed
        n, slots = self.DEGREE, self.SLOTS
        self.cases = []
        for alpha, beta in PAIRS:
            config = sk_basis.make_config(alpha, beta)
            curve = sk_curve.Curve(config, rng.uniform(-SPAN, SPAN, (n + 1, 3)))
            patch = sk_surface.SurfacePatch(config, rng.uniform(-SPAN, SPAN, (n + 1, n + 1, 3)))
            lo, hi = _domain(curve.domain, alpha, beta, n)
            # Slot 0 sits on the low corner and the middle slot on the high
            # one, so endpoint interpolation is checked exactly.
            s = rng.uniform(0.0, 1.0, (3, slots))
            s[:, 0], s[:, slots // 2] = 0.0, 1.0
            t, u, v = ([ref.param(lo, hi, x) for x in row] for row in s.tolist())
            self.cases.append({
                "alpha": alpha, "beta": beta, "config": config, "curve": curve,
                "patch": patch, "lo": lo, "hi": hi, "t": t, "u": u, "v": v,
                "k": rng.integers(0, n + 1, slots).tolist(),
                "control": curve.control.tolist(), "net": patch.net.tolist(),
                "tol": ref.tolerance(n, lo, hi, SPAN),
                "ptol": ref.tolerance(2 * n, lo, hi, SPAN),
                "btol": ref.tolerance(n, lo, hi),
            })
        self.evals_per_op = len(PAIRS) * self.ROUTES
        self.values_per_op = None
        self.first = {}

    def op(self, index: int):
        slot = index % self.SLOTS
        out = []
        for c in self.cases:
            curve, patch, t, u, v = c["curve"], c["patch"], c["t"][slot], c["u"][slot], c["v"][slot]
            out.append((
                sk_curve.eval_direct(curve, t),
                sk_curve.eval_decasteljau(curve, t),
                sk_curve.eval_matrix_form(curve, t),
                sk_surface.eval_patch(patch, u, v),
                sk_surface.eval_patch_decasteljau(patch, u, v),
                sk_basis.basis_value(c["config"], (self.DEGREE, c["k"][slot]), t),
            ))
        return out

    def check(self, out, index: int) -> None:
        slot = index % self.SLOTS
        exact = index % self.EXACT_EVERY == 0
        for c, (direct, pyramid, matrix, tensor, bidir, value) in zip(self.cases, out):
            lo, hi, control, net = c["lo"], c["hi"], c["control"], c["net"]
            t, u, v, k = c["t"][slot], c["u"][slot], c["v"][slot], c["k"][slot]
            s, su, sv = ref.unit(lo, hi, t), ref.unit(lo, hi, u), ref.unit(lo, hi, v)
            want = ref.curve_point(control, s)
            if exact:
                want_exact = ref.curve_point_exact(c["alpha"], c["beta"], control, t)
            for what, pt in (("eval_direct", direct), ("eval_decasteljau", pyramid),
                             ("eval_matrix_form", matrix)):
                checks.close(pt, want, c["tol"], what)
                checks.in_box(pt, control, c["tol"], what)
                if exact:
                    checks.close_exact(pt, want_exact, c["tol"], what)
            want = ref.patch_point(net, su, sv)
            if exact:
                want_exact = ref.patch_point_exact(c["alpha"], c["beta"], net, u, v)
            for what, pt in (("eval_patch", tensor), ("eval_patch_decasteljau", bidir)):
                checks.close(pt, want, c["ptol"], what)
                checks.in_box(pt, net, c["ptol"], what)
                if exact:
                    checks.close_exact(pt, want_exact, c["ptol"], what)
            if not value >= 0.0:
                raise CheckError("basis_value: negative value")
            checks.close([value], [ref.basis_row(self.DEGREE, s)[k]], c["btol"], "basis_value")
            if exact:
                elo, ehi = ref.domain_exact(c["alpha"], c["beta"], self.DEGREE)
                row = ref.basis_row_exact(self.DEGREE, (Fraction(t) - elo) / (ehi - elo))
                checks.close_exact([value], [row[k]], c["btol"], "basis_value")
            if s in (0.0, 1.0):
                end = 0 if s == 0.0 else -1
                for what, pt in (("eval_direct", direct), ("eval_decasteljau", pyramid),
                                 ("eval_matrix_form", matrix)):
                    checks.equal(pt, control[end], f"{what}: endpoint")
                for what, pt in (("eval_patch", tensor), ("eval_patch_decasteljau", bidir)):
                    if su == s and sv == s:
                        checks.equal(pt, net[end][end], f"{what}: corner")
        if self.values_per_op is None:
            self.values_per_op = sum(np.size(a) for case in out for a in case)
        first = self.first.setdefault(slot, out)
        if first is not out and not all(
                np.array_equal(a, b) for new, old in zip(out, first) for a, b in zip(new, old)):
            raise CheckError("a repeated library call returned different values")


WORKLOADS = {w.name: w for w in (CliTables, LibBatch, LibPoint)}

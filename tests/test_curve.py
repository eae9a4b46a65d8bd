import tracemalloc

import numpy as np
import pytest

from shiftknot import _kernels
from shiftknot.curve import _band_matrices
from shiftknot import (
    MAX_DEGREE,
    ConstraintError,
    Curve,
    DomainError,
    basis_rows,
    decasteljau_triangle,
    domain,
    elevate,
    elevate_many,
    elevation_matrix,
    endpoint_derivative,
    eval_decasteljau,
    eval_direct,
    eval_matrix_form,
    make_config,
    sample_curve,
    step_matrix,
)

import _classical
from _helpers import (
    PIN_SHIFTS,
    angle_between,
    assert_bits_equal,
    assert_pinned,
    hull_contains,
    pinned_curves,
    point_params,
    polygon_to_samples_distance,
    random_curve,
)

PARABOLA = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 4.0], [3.0, 9.0]])


def parabola_curve():
    return Curve(make_config(4, 6), PARABOLA)


class TestCurveContainer:
    def test_properties(self):
        c = parabola_curve()
        assert c.degree == 3
        assert c.dimension == 2
        assert c.domain.lo == pytest.approx(4 / 9)
        assert c.domain.hi == pytest.approx(7 / 9)

    def test_domain_is_built_once(self):
        c = parabola_curve()
        assert c.domain is c.domain
        assert c.domain is domain(c.config, c.degree)

    def test_identity_semantics(self):
        c, twin = parabola_curve(), parabola_curve()
        assert c == c
        assert c != twin
        assert {c: "c", twin: "twin"}[c] == "c"
        assert hash(c) == hash(c)

    def test_degenerate_domain_raises_on_every_use(self):
        # alpha = beta = 1e17 puts both domain ends on 1.0 in float
        c = Curve(make_config(1e17, 1e17), PARABOLA)
        for _ in range(2):
            with pytest.raises(ConstraintError):
                c.domain

    def test_control_net_is_frozen(self):
        c = parabola_curve()
        with pytest.raises(ValueError):
            c.control[0, 0] = 5.0

    def test_input_copy_is_defensive(self):
        pts = PARABOLA.copy()
        c = Curve(make_config(0, 0), pts)
        pts[0, 0] = 99.0
        assert c.control[0, 0] == 0.0

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_control_is_a_read_only_c_contiguous_copy(self, layout):
        base = np.random.default_rng(2).uniform(-5, 5, size=(8, 6))[::2, ::2]
        pts = {"C": base.copy(), "F": np.asfortranarray(base), "strided": base}[layout]
        c = Curve(make_config(4, 6), pts)
        assert c.control.flags.c_contiguous and not c.control.flags.writeable
        assert not np.shares_memory(c.control, pts)
        assert_bits_equal(c.control, pts)

    @pytest.mark.parametrize(
        "pts",
        [
            np.zeros((1, 2)),  # a single point has no degree
            np.array([[0.0, np.nan], [1.0, 1.0]]),
            np.zeros((3, 0)),
            [[10**400, 0.0], [1.0, 1.0]],  # an integer beyond float range
        ],
    )
    def test_bad_nets_rejected(self, pts):
        with pytest.raises(ConstraintError):
            Curve(make_config(0, 0), pts)

    def test_ragged_net_rejected(self):
        with pytest.raises(ConstraintError):
            Curve(make_config(0, 0), [[0.0, 0.0], [1.0]])


class TestEvaluation:
    def test_frozen_point(self):
        # exact value (7/5, 203/75) at t = 3/5
        p = eval_direct(parabola_curve(), 0.6)
        np.testing.assert_allclose(p, [1.4, 203 / 75], rtol=1e-14)

    def test_endpoints_interpolate(self):
        c = parabola_curve()
        np.testing.assert_allclose(eval_decasteljau(c, c.domain.lo), PARABOLA[0], atol=1e-14)
        np.testing.assert_allclose(eval_decasteljau(c, c.domain.hi), PARABOLA[-1], atol=1e-14)

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            eval_direct(parabola_curve(), 0.2)
        with pytest.raises(DomainError):
            eval_decasteljau(parabola_curve(), 0.9)

    def test_three_routes_agree(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(60):
            c = random_curve(rng)
            t = c.domain.from_unit(rng.uniform())
            a = eval_direct(c, t)
            b = eval_decasteljau(c, t)
            m = eval_matrix_form(c, t)
            worst = max(worst, np.abs(a - b).max(), np.abs(a - m).max())
        assert worst <= 1e-10

    def test_matrix_form_frozen_point(self):
        np.testing.assert_allclose(
            eval_matrix_form(parabola_curve(), 0.6), [1.4, 203 / 75], rtol=1e-12
        )

    def test_classical_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.uniform(-5, 5, size=(rng.integers(2, 9), 2))
            c = Curve(make_config(0, 0), pts)
            t = rng.uniform()
            np.testing.assert_allclose(
                eval_decasteljau(c, t), _classical.eval_curve(pts, t), atol=1e-12
            )

    def test_sample_curve_algorithms(self):
        c = parabola_curve()
        ts = c.domain.grid(9)
        direct = sample_curve(c, ts, algorithm="direct")
        casteljau = sample_curve(c, ts, algorithm="decasteljau")
        matrix = sample_curve(c, ts, algorithm="matrix")
        assert direct.shape == (9, 2)
        np.testing.assert_allclose(direct, casteljau, atol=1e-12)
        np.testing.assert_allclose(direct, matrix, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("algorithm", ["direct", "decasteljau", "matrix"])
    def test_sample_curve_shape(self, algorithm, count, dim):
        c = Curve(make_config(4, 6), np.arange(4.0 * dim).reshape(4, dim))
        ts = np.linspace(c.domain.lo, c.domain.hi, count)
        assert sample_curve(c, ts, algorithm=algorithm).shape == (count, dim)

    def test_matrix_route_memory_is_bounded(self):
        # unchunked, the degree-64 step-matrix stack alone would take ~165 MB
        rng = np.random.default_rng(64)
        c = random_curve(rng, degree=MAX_DEGREE, dim=3, config=make_config(4, 6))
        ts = c.domain.grid(5000)
        tracemalloc.start()
        try:
            got = sample_curve(c, ts, algorithm="matrix")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        np.testing.assert_allclose(got, sample_curve(c, ts, algorithm="direct"), atol=1e-10)

    def test_pyramid_routes_call_the_kernel_once(self, monkeypatch):
        # the benchmark's kernels.decasteljau_* spans count on one call per route call
        calls = []
        kernel = _kernels.decasteljau_batch

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "decasteljau_batch", counted)
        c = parabola_curve()
        eval_decasteljau(c, 0.6)
        assert len(calls) == 1
        sample_curve(c, c.domain.grid(9), algorithm="decasteljau")
        assert len(calls) == 2

    def test_sample_curve_unknown_algorithm(self):
        with pytest.raises(ConstraintError):
            sample_curve(parabola_curve(), [0.5], algorithm="horner")

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        A = np.array([[2.0, -1.0], [0.5, 3.0]])
        b = np.array([4.0, -2.0])
        for _ in range(20):
            c = random_curve(rng, dim=2)
            mapped = Curve(c.config, c.control @ A.T + b)
            t = c.domain.from_unit(rng.uniform())
            np.testing.assert_allclose(
                eval_decasteljau(mapped, t),
                A @ eval_decasteljau(c, t) + b,
                atol=1e-10,
            )

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(30):
            c = random_curve(rng, dim=2)
            if c.degree < 2:
                continue
            pts = sample_curve(c, c.domain.grid(40))
            for p in pts:
                assert hull_contains(c.control, p, slack=1e-9)
            checked += 1
        assert checked >= 20


def _per_level_products(curve, ts):
    """The step-matrix route as one loop over the pyramid levels that
    builds each level's band matrices anew, on weights computed here."""
    lo, hi = curve.domain.lo, curve.domain.hi
    ts = np.asarray(ts, dtype=np.float64)[:, None]
    wl, wr = (hi - ts) / (hi - lo), (ts - lo) / (hi - lo)
    vec = curve.control
    for rows in range(curve.degree, 0, -1):
        vec = _band_matrices(rows, wl, wr) @ vec
    return vec[:, 0]


class TestMatrixRoutePins:
    """The matrix sampler returns, bit for bit, what the single-point
    step-matrix route returns at each of its parameters, and both return
    what a per-level loop over freshly built band matrices returns."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_routes_match_per_level_loop(self, shift, dim):
        rng = np.random.default_rng(dim)
        for curve, ts in pinned_curves(*shift, dim):
            what = f"degree {curve.degree}"
            for t in ts:
                want = _per_level_products(curve, [t])
                assert_bits_equal(eval_matrix_form(curve, t), want[0], what)
                assert_bits_equal(sample_curve(curve, [t], algorithm="matrix"), want, what)
            dom = curve.domain
            many = np.concatenate([ts, dom.lo + rng.uniform(size=600 - len(ts)) * dom.width])
            many = np.clip(many, dom.lo, dom.hi)
            got = sample_curve(curve, many, algorithm="matrix")
            assert_bits_equal(got, _per_level_products(curve, many), what)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_sampler_matches_point_loop(self, shift, dim):
        for curve, ts in pinned_curves(*shift, dim):
            got = sample_curve(curve, ts, algorithm="matrix")
            want = np.array([eval_matrix_form(curve, t) for t in ts])
            assert_bits_equal(got, want, f"degree {curve.degree}")

    @pytest.mark.parametrize("degree", [5, 40])
    def test_sampler_matches_point_loop_over_many_samples(self, degree):
        rng = np.random.default_rng(degree)
        c = random_curve(rng, degree=degree, dim=3, config=make_config(4, 6))
        ts = np.sort(c.domain.lo + rng.uniform(size=600) * c.domain.width)
        got = sample_curve(c, ts, algorithm="matrix", clamp=True)
        want = np.array([eval_matrix_form(c, t, clamp=True) for t in ts])
        assert_bits_equal(got, want)


class TestDirectRoutePins:
    """``eval_direct`` returns, bit for bit, the batch basis row at its
    parameter contracted with the control polygon."""

    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_point_matches_batch_row(self, shift):
        for curve, _ in pinned_curves(*shift, 3):
            cfg, n = curve.config, curve.degree
            assert_pinned(
                lambda t, clamp: eval_direct(curve, t, clamp=clamp),
                lambda t, clamp: basis_rows(cfg, n, [t], clamp=clamp)[0] @ curve.control,
                [(t,) for t in point_params(curve.domain, seed=n)],
                f"degree {n}",
            )


class TestPyramidRoutePins:
    """``eval_decasteljau`` returns, bit for bit, the one-sample kernel call
    at its parameter."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_point_matches_one_sample_kernel_call(self, shift, dim):
        for curve, _ in pinned_curves(*shift, dim):
            dom = curve.domain

            def reference(t, clamp):
                wl, wr = dom.weights(dom.admit(t, clamp))
                return _kernels.decasteljau_batch(
                    curve.control, np.array([wl]), np.array([wr])
                )[0]

            assert_pinned(
                lambda t, clamp: eval_decasteljau(curve, t, clamp=clamp),
                reference,
                [(t,) for t in point_params(dom, seed=curve.degree)],
                f"degree {curve.degree}",
            )


class TestTriangle:
    def test_structure(self):
        tri = decasteljau_triangle(parabola_curve(), 0.6)
        assert len(tri.levels) == 4
        assert [lvl.shape[0] for lvl in tri.levels] == [4, 3, 2, 1]
        np.testing.assert_array_equal(tri.levels[0], PARABOLA)
        np.testing.assert_allclose(tri.apex, [1.4, 203 / 75], rtol=1e-13)

    def test_levels_are_convex_combinations(self):
        c = parabola_curve()
        dom = c.domain
        t = 0.6
        factor = (3 + 6) / 3
        wl = factor * (dom.hi - t)
        wr = factor * (t - dom.lo)
        assert wl + wr == pytest.approx(1.0, abs=1e-14)
        tri = decasteljau_triangle(c, t)
        for lvl, nxt in zip(tri.levels, tri.levels[1:]):
            np.testing.assert_allclose(nxt, wl * lvl[:-1] + wr * lvl[1:], atol=1e-13)

    def test_classical_triangle_apex_matches(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        tri = decasteljau_triangle(Curve(make_config(0, 0), pts), 0.25)
        np.testing.assert_allclose(tri.apex, _classical.decasteljau(pts, 0.25), atol=1e-14)


class TestStepMatrix:
    def test_frozen_classical_midpoint(self):
        M = step_matrix(make_config(0, 0), 2, 1, 0.5)
        np.testing.assert_allclose(M, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])

    def test_shapes_and_row_sums(self):
        cfg = make_config(4, 6)
        t = 0.6
        for r in range(1, 4):
            M = step_matrix(cfg, 3, r, t)
            assert M.shape == (4 - r, 5 - r)
            np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-14)

    def test_invalid_level_rejected(self):
        with pytest.raises(IndexError):
            step_matrix(make_config(0, 0), 3, 0, 0.5)
        with pytest.raises(IndexError):
            step_matrix(make_config(0, 0), 3, 4, 0.5)

    def test_product_of_steps_is_basis_row(self):
        from shiftknot import basis_row

        cfg = make_config(4, 6)
        t = 0.7
        prod = step_matrix(cfg, 3, 3, t)
        for r in (2, 1):
            prod = prod @ step_matrix(cfg, 3, r, t)
        np.testing.assert_allclose(prod.ravel(), basis_row(cfg, 3, t), atol=1e-13)


class TestElevation:
    def test_matrix_frozen_degree_one(self):
        E = elevation_matrix(1)
        np.testing.assert_allclose(E, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])

    def test_matrix_frozen_degree_two_row(self):
        E = elevation_matrix(2)
        assert E.shape == (4, 3)
        np.testing.assert_allclose(E[1], [1 / 3, 2 / 3, 0.0], rtol=1e-15)

    def test_rows_are_stochastic(self):
        for n in range(1, 15):
            E = elevation_matrix(n)
            np.testing.assert_allclose(E.sum(axis=1), 1.0, atol=1e-14)
            assert np.all(E >= 0.0)

    def test_elevate_preserves_endpoints_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            c = random_curve(rng)
            e = elevate(c)
            assert e.degree == c.degree + 1
            np.testing.assert_array_equal(e.control[0], c.control[0])
            np.testing.assert_array_equal(e.control[-1], c.control[-1])

    def test_elevated_curve_matches_at_shared_normalized_parameter(self):
        # each degree lives on its own interval, so the comparison pairs
        # points at equal normalized positions
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(40):
            c = random_curve(rng)
            e = elevate(c)
            for s in rng.uniform(size=6):
                p = eval_decasteljau(c, c.domain.from_unit(s))
                q = eval_decasteljau(e, e.domain.from_unit(s))
                worst = max(worst, np.abs(p - q).max())
        assert worst <= 1e-10

    def test_classical_elevation_matches_reference(self):
        pts = np.array([[0.0, 0.0], [2.0, 3.0], [5.0, 1.0]])
        e = elevate(Curve(make_config(0, 0), pts))
        np.testing.assert_allclose(e.control, _classical.elevate(pts), atol=1e-14)

    def test_elevate_many_levels(self):
        c = parabola_curve()
        e = elevate_many(c, 5)
        assert e.degree == 8
        np.testing.assert_array_equal(elevate_many(c, 1).control, elevate(c).control)
        with pytest.raises(ConstraintError):
            elevate_many(c, 0)
        with pytest.raises(ConstraintError):
            elevate_many(c, -1)

    def test_control_polygon_converges_to_curve(self):
        c = parabola_curve()
        samples = sample_curve(c, c.domain.grid(200))

        def dist_after(levels):
            e = elevate_many(c, levels)
            # compare in normalized coordinates so the shrinking domain
            # does not bias the polygon toward one end
            mapped = sample_curve(e, e.domain.grid(200))
            return polygon_to_samples_distance(np.asarray(e.control), mapped)

        d5 = dist_after(5)
        d20 = dist_after(20)
        assert d20 < d5
        assert d5 < polygon_to_samples_distance(np.asarray(c.control), samples)


class TestEndpointDerivative:
    def test_frozen_left_value(self):
        # (n + beta) times the first control leg
        d = endpoint_derivative(parabola_curve(), "lo")
        np.testing.assert_allclose(d, 9.0 * (PARABOLA[1] - PARABOLA[0]), rtol=1e-14)

    def test_frozen_right_value(self):
        d = endpoint_derivative(parabola_curve(), "hi")
        np.testing.assert_allclose(d, 9.0 * (PARABOLA[3] - PARABOLA[2]), rtol=1e-14)

    def test_bad_end_label(self):
        with pytest.raises(ConstraintError):
            endpoint_derivative(parabola_curve(), "middle")

    def test_one_sided_difference_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            c = random_curve(rng)
            dom = c.domain
            h = 1e-7 * dom.width
            for end, t0, sign in (("lo", dom.lo, 1.0), ("hi", dom.hi, -1.0)):
                exact = endpoint_derivative(c, end)
                fd = sign * (eval_decasteljau(c, t0 + sign * h) - eval_decasteljau(c, t0)) / h
                scale = max(np.linalg.norm(exact), 1e-9)
                assert np.linalg.norm(fd - exact) / scale <= 1e-4

    def test_tangent_parallel_to_control_leg(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            c = random_curve(rng)
            leg_lo = np.asarray(c.control[1] - c.control[0])
            leg_hi = np.asarray(c.control[-1] - c.control[-2])
            if np.linalg.norm(leg_lo) > 1e-9:
                assert angle_between(endpoint_derivative(c, "lo"), leg_lo) <= 1e-8
            if np.linalg.norm(leg_hi) > 1e-9:
                assert angle_between(endpoint_derivative(c, "hi"), leg_hi) <= 1e-8

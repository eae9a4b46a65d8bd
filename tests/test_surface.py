import itertools

import numpy as np
import pytest

from shiftknot import _kernels
from shiftknot import (
    ConstraintError,
    Curve,
    DomainError,
    SurfacePatch,
    basis_row,
    basis_rows,
    domain,
    elevate_patch,
    elevation_matrix,
    eval_decasteljau,
    eval_patch,
    eval_patch_decasteljau,
    isoparam_u,
    isoparam_v,
    make_config,
    sample_patch,
)

import _classical
from _helpers import (
    PIN_SHIFTS,
    assert_bits_equal,
    assert_pinned,
    hull_contains,
    pinned_patches,
    point_params,
    random_patch,
)

BILINEAR = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0], [1.0, 1.0, 2.0]],
    ]
)


def bilinear_patch():
    return SurfacePatch(make_config(4, 6), BILINEAR)


def _stencil_loop(patch, u, v, *, clamp=False):
    """The bidirectional pyramid as one seven-term expression per level,
    then a one-directional loop along the longer direction."""
    m, n = patch.degrees
    dom_u, dom_v = patch.domain_u, patch.domain_v
    u = dom_u.admit(u, clamp)
    v = dom_v.admit(v, clamp)
    wlu, wru = dom_u.weights(u)
    wlv, wrv = dom_v.weights(v)
    work = patch.net
    for _ in range(min(m, n)):
        work = (
            (wlu * wlv) * work[:-1, :-1]
            + (wlu * wrv) * work[:-1, 1:]
            + (wru * wlv) * work[1:, :-1]
            + (wru * wrv) * work[1:, 1:]
        )
    if m > n:
        poly, wl, wr = work[:, 0, :], wlu, wru
    elif n > m:
        poly, wl, wr = work[0, :, :], wlv, wrv
    else:
        return work[0, 0]
    for _ in range(abs(m - n)):
        poly = wl * poly[:-1] + wr * poly[1:]
    return poly[0]


class TestPatchContainer:
    def test_properties(self):
        p = bilinear_patch()
        assert p.degrees == (1, 1)
        assert p.dimension == 3
        assert p.domain_u.lo == pytest.approx(4 / 7)
        assert p.domain_v.hi == pytest.approx(5 / 7)

    def test_mixed_degree_domains_differ(self):
        net = np.zeros((4, 2, 3))
        p = SurfacePatch(make_config(4, 6), net)
        assert p.degrees == (3, 1)
        assert p.domain_u.lo == pytest.approx(4 / 9)
        assert p.domain_v.lo == pytest.approx(4 / 7)

    def test_domains_are_built_once(self):
        p = bilinear_patch()
        assert p.domain_u is p.domain_u
        assert p.domain_v is p.domain_v
        assert p.domain_u is domain(p.config, p.degrees[0])

    def test_identity_semantics(self):
        p, twin = bilinear_patch(), bilinear_patch()
        assert p == p
        assert p != twin
        assert {p: "p", twin: "twin"}[p] == "p"
        assert hash(p) == hash(p)

    def test_net_is_frozen(self):
        p = bilinear_patch()
        with pytest.raises(ValueError):
            p.net[0, 0, 0] = 1.0

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(range(3))), ids=lambda o: "".join(map(str, o))
    )
    def test_net_is_a_read_only_c_contiguous_copy(self, order):
        net = np.random.default_rng(5).uniform(-5, 5, size=(4, 6, 3))
        net = np.ascontiguousarray(net.transpose(order)).transpose(np.argsort(order))
        p = SurfacePatch(make_config(4, 6), net)
        assert p.net.flags.c_contiguous and not p.net.flags.writeable
        assert not np.shares_memory(p.net, net)
        assert_bits_equal(p.net, net)

    def test_oversized_integer_rejected(self):
        net = [[[0.0, 0.0, 10**400], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 1.0, 2.0]]]
        with pytest.raises(ConstraintError):
            SurfacePatch(make_config(0, 0), net)

    def test_flat_net_rejected(self):
        with pytest.raises(ConstraintError):
            SurfacePatch(make_config(0, 0), np.zeros((2, 2)))
        with pytest.raises(ConstraintError):
            SurfacePatch(make_config(0, 0), np.zeros((1, 3, 2)))


class TestEvaluation:
    def test_corners_interpolate(self):
        p = bilinear_patch()
        du, dv = p.domain_u, p.domain_v
        np.testing.assert_allclose(eval_patch(p, du.lo, dv.lo), BILINEAR[0, 0], atol=1e-14)
        np.testing.assert_allclose(eval_patch(p, du.hi, dv.lo), BILINEAR[1, 0], atol=1e-14)
        np.testing.assert_allclose(eval_patch(p, du.lo, dv.hi), BILINEAR[0, 1], atol=1e-14)
        np.testing.assert_allclose(eval_patch(p, du.hi, dv.hi), BILINEAR[1, 1], atol=1e-14)

    def test_frozen_center_point(self):
        # bilinear net lifts its twisted corner: center height is the mean
        p = bilinear_patch()
        u = p.domain_u.from_unit(0.5)
        v = p.domain_v.from_unit(0.5)
        np.testing.assert_allclose(eval_patch(p, u, v), [0.5, 0.5, 0.5], atol=1e-14)

    def test_out_of_domain_rejected(self):
        p = bilinear_patch()
        with pytest.raises(DomainError):
            eval_patch(p, 0.1, p.domain_v.lo)
        with pytest.raises(DomainError):
            eval_patch(p, p.domain_u.lo, 0.99)

    def test_classical_reduction(self):
        rng = np.random.default_rng(4)
        net = rng.uniform(-3, 3, size=(4, 3, 3))
        p = SurfacePatch(make_config(0, 0), net)
        for _ in range(20):
            u, v = rng.uniform(size=2)
            np.testing.assert_allclose(
                eval_patch(p, u, v), _classical.eval_patch(net, u, v), atol=1e-12
            )

    def test_sample_patch_grid(self):
        p = bilinear_patch()
        us = p.domain_u.grid(5)
        vs = p.domain_v.grid(7)
        grid = sample_patch(p, us, vs)
        assert grid.shape == (5, 7, 3)
        np.testing.assert_allclose(grid[2, 3], eval_patch(p, us[2], vs[3]), atol=1e-13)

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        A = np.array([[1.0, 0.5, 0.0], [-0.25, 2.0, 1.0], [0.0, 0.0, 3.0]])
        b = np.array([1.0, -4.0, 2.0])
        for _ in range(20):
            p = random_patch(rng)
            mapped = SurfacePatch(p.config, p.net @ A.T + b)
            u = p.domain_u.from_unit(rng.uniform())
            v = p.domain_v.from_unit(rng.uniform())
            np.testing.assert_allclose(
                eval_patch(mapped, u, v), A @ eval_patch(p, u, v) + b, atol=1e-10
            )

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            p = random_patch(rng)
            pts = sample_patch(
                p, p.domain_u.grid(7), p.domain_v.grid(7)
            ).reshape(-1, 3)
            flat = p.net.reshape(-1, 3)
            for q in pts:
                assert hull_contains(flat, q, slack=1e-9)


class TestPyramidEvaluation:
    def test_matches_tensor_route_square(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            p = random_patch(rng, m=d, n=d)
            u = p.domain_u.from_unit(rng.uniform())
            v = p.domain_v.from_unit(rng.uniform())
            np.testing.assert_allclose(
                eval_patch_decasteljau(p, u, v), eval_patch(p, u, v), atol=1e-11
            )

    def test_matches_tensor_route_all_degree_pairs(self):
        # degree gaps exercise the tail steps that run in one direction only
        rng = np.random.default_rng(42)
        cfg = make_config(4, 6)
        worst = 0.0
        for m in range(1, 7):
            for n in range(1, 7):
                net = rng.uniform(-5, 5, size=(m + 1, n + 1, 3))
                p = SurfacePatch(cfg, net)
                for _ in range(3):
                    u = p.domain_u.from_unit(rng.uniform())
                    v = p.domain_v.from_unit(rng.uniform())
                    diff = np.abs(
                        eval_patch_decasteljau(p, u, v) - eval_patch(p, u, v)
                    ).max()
                    worst = max(worst, diff)
        assert worst <= 1e-10

    @pytest.mark.parametrize("m, n, calls", [(3, 3, 0), (2, 5, 1), (5, 2, 1), (1, 1, 0)])
    def test_tail_goes_through_the_kernel_once(self, monkeypatch, m, n, calls):
        seen = []
        kernel = _kernels.decasteljau_batch
        monkeypatch.setattr(_kernels, "decasteljau_batch",
                            lambda *args: seen.append(args) or kernel(*args))
        p = random_patch(np.random.default_rng(m * 7 + n), m=m, n=n)
        eval_patch_decasteljau(p, p.domain_u.lo, p.domain_v.hi)
        assert len(seen) == calls

    def test_corner_exactness(self):
        p = bilinear_patch()
        got = eval_patch_decasteljau(p, p.domain_u.lo, p.domain_v.lo)
        np.testing.assert_allclose(got, BILINEAR[0, 0], atol=1e-14)


class TestIsoparams:
    def test_u_line_traces_u_at_fixed_v(self):
        p = bilinear_patch()
        v = p.domain_v.from_unit(0.25)
        line = isoparam_u(p, v)
        assert isinstance(line, Curve)
        assert line.degree == p.degrees[0]
        for s in np.linspace(0, 1, 10):
            u = p.domain_u.from_unit(s)
            np.testing.assert_allclose(
                eval_decasteljau(line, u), eval_patch(p, u, v), atol=1e-12
            )

    def test_v_line_traces_v_at_fixed_u(self):
        rng = np.random.default_rng(30)
        p = random_patch(rng)
        u = p.domain_u.from_unit(0.7)
        line = isoparam_v(p, u)
        assert line.degree == p.degrees[1]
        for s in np.linspace(0, 1, 10):
            v = p.domain_v.from_unit(s)
            np.testing.assert_allclose(
                eval_decasteljau(line, v), eval_patch(p, u, v), atol=1e-12
            )

    def test_grid_cross_consistency(self):
        rng = np.random.default_rng(31)
        p = random_patch(rng)
        for sv in np.linspace(0, 1, 10):
            v = p.domain_v.from_unit(sv)
            line = isoparam_u(p, v)
            for su in np.linspace(0, 1, 10):
                u = p.domain_u.from_unit(su)
                np.testing.assert_allclose(
                    eval_decasteljau(line, u), eval_patch(p, u, v), atol=1e-12
                )


class TestPointRoutePins:
    """``eval_patch`` and the isoparametric lines return, bit for bit, the
    contraction of the net with batch basis rows at their parameters, as the
    one blend kernel computes it for a grid."""

    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_eval_patch_matches_batch_rows(self, shift):
        for p in pinned_patches(*shift, 3):
            m, n = p.degrees
            us, vs = point_params(p.domain_u, seed=m), point_params(p.domain_v, seed=n)
            assert_pinned(
                lambda u, v, clamp: eval_patch(p, u, v, clamp=clamp),
                lambda u, v, clamp: sample_patch(p, [u], [v], clamp=clamp)[0, 0],
                [*zip(us, vs), *zip(us, vs[::-1])],
                f"degrees {(m, n)}",
            )

    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_isoparams_match_batch_rows(self, shift):
        for p in pinned_patches(*shift, 3):
            (m, n), cfg = p.degrees, p.config
            assert_pinned(
                lambda v, clamp: isoparam_u(p, v, clamp=clamp).control,
                lambda v, clamp: _kernels.blend(
                    basis_rows(cfg, n, [v], clamp=clamp), p.net.transpose(1, 0, 2)
                )[0],
                [(v,) for v in point_params(p.domain_v, seed=n)],
                f"isoparam_u, degrees {(m, n)}",
            )
            assert_pinned(
                lambda u, clamp: isoparam_v(p, u, clamp=clamp).control,
                lambda u, clamp: _kernels.blend(basis_rows(cfg, m, [u], clamp=clamp), p.net)[0],
                [(u,) for u in point_params(p.domain_u, seed=m)],
                f"isoparam_v, degrees {(m, n)}",
            )


    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_pyramid_matches_stencil_loop(self, shift, dim):
        rng = np.random.default_rng(dim)
        cfg = make_config(*shift)
        small = [random_patch(rng, m=m, n=n, dim=dim, config=cfg)
                 for m in range(1, 7) for n in range(1, 7)]
        for p in [*pinned_patches(*shift, dim), *small]:
            (m, n) = p.degrees
            us, vs = point_params(p.domain_u, seed=m), point_params(p.domain_v, seed=n)
            assert_pinned(
                lambda u, v, clamp: eval_patch_decasteljau(p, u, v, clamp=clamp),
                lambda u, v, clamp: _stencil_loop(p, u, v, clamp=clamp),
                [*zip(us, vs), *zip(us, vs[::-1])],
                f"degrees {(m, n)}",
            )

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(range(3))), ids=lambda o: "".join(map(str, o))
    )
    def test_pyramid_reads_any_memory_layout(self, order):
        # the net's axes laid out in memory in every order: C, F and the
        # four that are neither, such as swapped u/v axes
        rng = np.random.default_rng(5)
        net = rng.uniform(-5, 5, size=(4, 6, 3))
        net = np.ascontiguousarray(net.transpose(order)).transpose(np.argsort(order))
        p = SurfacePatch(make_config(4, 6), net)
        assert p.net.flags.c_contiguous
        us, vs = point_params(p.domain_u, seed=3), point_params(p.domain_v, seed=5)
        assert_pinned(
            lambda u, v, clamp: eval_patch_decasteljau(p, u, v, clamp=clamp),
            lambda u, v, clamp: _stencil_loop(p, u, v, clamp=clamp),
            [*zip(us, vs), *zip(us, vs[::-1])],
            f"axis order {order}",
        )

    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_pyramid_reads_elevated_nets(self, shift):
        # elevate_patch builds its net with the blend kernel, not from caller input
        rng = np.random.default_rng(11)
        cfg = make_config(*shift)
        for m, n in [(1, 1), (1, 3), (3, 1), (2, 4), (5, 5)]:
            p = elevate_patch(random_patch(rng, m=m, n=n, dim=3, config=cfg))
            us, vs = point_params(p.domain_u, seed=m), point_params(p.domain_v, seed=n)
            assert_pinned(
                lambda u, v, clamp: eval_patch_decasteljau(p, u, v, clamp=clamp),
                lambda u, v, clamp: _stencil_loop(p, u, v, clamp=clamp),
                [*zip(us, vs), *zip(us, vs[::-1])],
                f"elevated from degrees {(m, n)}",
            )

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 2), (3, 3)])
    def test_pyramid_keeps_signed_zeros(self, m, n, dim):
        # corner weights multiply negative entries by 0 to -0.0, so only
        # additions in the stencil's own order keep the sign of zero
        rng = np.random.default_rng(m * 7 + n)
        net = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(m + 1, n + 1, dim))
        net[..., 0] = -0.0
        net[..., 1:] = -rng.uniform(size=(m + 1, n + 1, dim - 1))
        p = SurfacePatch(make_config(4, 6), net)
        dom_u, dom_v = p.domain_u, p.domain_v
        corners = [(u, v) for u in (dom_u.lo, dom_u.hi) for v in (dom_v.lo, dom_v.hi)]
        assert_pinned(
            lambda u, v, clamp: eval_patch_decasteljau(p, u, v, clamp=clamp),
            lambda u, v, clamp: _stencil_loop(p, u, v, clamp=clamp),
            corners,
            f"degrees {(m, n)}",
        )
        assert np.signbit(eval_patch_decasteljau(p, dom_u.lo, dom_v.lo)[0])


class TestPatchElevation:
    def test_shape_grows_in_both_directions(self):
        e = elevate_patch(bilinear_patch())
        assert e.degrees == (2, 2)
        assert e.net.shape == (3, 3, 3)

    def test_corners_exact(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = random_patch(rng)
            e = elevate_patch(p)
            np.testing.assert_array_equal(e.net[0, 0], p.net[0, 0])
            np.testing.assert_array_equal(e.net[-1, 0], p.net[-1, 0])
            np.testing.assert_array_equal(e.net[0, -1], p.net[0, -1])
            np.testing.assert_array_equal(e.net[-1, -1], p.net[-1, -1])

    def test_separable_form(self):
        # the two-direction blend factors through the per-direction matrices
        rng = np.random.default_rng(34)
        for _ in range(20):
            p = random_patch(rng)
            m, n = p.degrees
            expected = np.einsum(
                "ai,ijd,bj->abd",
                elevation_matrix(m),
                p.net,
                elevation_matrix(n),
            )
            np.testing.assert_allclose(elevate_patch(p).net, expected, atol=1e-13)

    def test_surface_unchanged_at_shared_normalized_parameters(self):
        rng = np.random.default_rng(35)
        worst = 0.0
        for _ in range(20):
            p = random_patch(rng)
            e = elevate_patch(p)
            for _ in range(4):
                su, sv = rng.uniform(size=2)
                a = eval_patch(p, p.domain_u.from_unit(su), p.domain_v.from_unit(sv))
                b = eval_patch(e, e.domain_u.from_unit(su), e.domain_v.from_unit(sv))
                worst = max(worst, np.abs(a - b).max())
        assert worst <= 1e-10


class TestTensorStructure:
    def test_row_partition_product(self):
        # the tensor weights inherit partition of unity from each factor
        rng = np.random.default_rng(36)
        p = random_patch(rng)
        m, n = p.degrees
        u = p.domain_u.from_unit(rng.uniform())
        v = p.domain_v.from_unit(rng.uniform())
        gu = basis_row(p.config, m, u)
        gv = basis_row(p.config, n, v)
        weights = np.outer(gu, gv)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights >= 0)

    def test_constant_net_reproduces_constant(self):
        cfg = make_config(2, 5)
        net = np.ones((4, 3, 3)) * np.array([2.0, -1.0, 0.5])
        p = SurfacePatch(cfg, net)
        u = p.domain_u.from_unit(0.3)
        v = p.domain_v.from_unit(0.8)
        np.testing.assert_allclose(eval_patch(p, u, v), [2.0, -1.0, 0.5], atol=1e-13)

import numpy as np
import pytest

from shiftknot import _kernels
from shiftknot import (
    MAX_DEGREE,
    basis_row,
    basis_rows,
    binomial_row,
    decasteljau_triangle,
    domain,
    make_config,
)

import _classical
from _helpers import PIN_SHIFTS, assert_bits_equal, pinned_curves


class TestNumpyVariants:
    def test_basis_rows_matches_public_api(self):
        # the shifted basis is the classical one in the normalized pair
        dom = domain(make_config(3, 7), 6)
        ts = dom.grid(40)
        wl, wr = dom.weights(ts)
        got = _kernels.basis_rows_batch(wl, wr, binomial_row(6))
        np.testing.assert_array_equal(got, basis_rows(make_config(3, 7), 6, ts))
        want = np.array([_classical.bernstein_row(6, s) for s in wr])
        np.testing.assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("samples", [1, 7, 5000])
    def test_basis_rows_pin_the_power_expression(self, samples):
        # bit for bit, at every degree up to MAX_DEGREE, with both ends
        rng = np.random.default_rng(samples)
        for n in range(1, MAX_DEGREE + 1):
            wr = rng.uniform(size=samples)
            wr[: min(samples, 2)] = [0.0, 1.0][: samples]
            wl = 1.0 - wr
            k = np.arange(n + 1)
            want = binomial_row(n) * wr[:, None] ** k * wl[:, None] ** (n - k)
            assert_bits_equal(_kernels.basis_rows_batch(wl, wr, binomial_row(n)), want, f"{n}")

    def test_decasteljau_batch_matches_direct(self):
        rng = np.random.default_rng(2)
        control = rng.uniform(-5, 5, size=(5, 3))
        wl = rng.uniform(0, 1, size=20)
        wr = 1.0 - wl
        out = _kernels.decasteljau_batch(control, wl, wr)
        for s in range(20):
            work = control.copy()
            for r in range(1, 5):
                work = wl[s] * work[: 5 - r] + wr[s] * work[1 : 6 - r]
            np.testing.assert_allclose(out[s], work[0], atol=1e-13)

    def test_decasteljau_batch_leaves_read_only_inputs_alone(self):
        rng = np.random.default_rng(4)
        control = rng.uniform(-5, 5, size=(9, 3))
        wl = rng.uniform(0, 1, size=50)
        wr = 1.0 - wl
        inputs = (control, wl, wr)
        copies = [a.copy() for a in inputs]
        want = _kernels.decasteljau_batch(*copies)
        for a in inputs:
            a.setflags(write=False)
        got = _kernels.decasteljau_batch(*inputs)
        assert_bits_equal(got, want)
        for a, before in zip(inputs, copies):
            assert_bits_equal(a, before)
            assert not np.shares_memory(got, a)

    def test_float_weights_leave_read_only_control_alone(self):
        rng = np.random.default_rng(4)
        control = rng.uniform(-5, 5, size=(9, 3))
        before = control.copy()
        control.setflags(write=False)
        got = _kernels.decasteljau_batch(control, 0.25, 0.75)
        assert got.shape == (3,)
        assert_bits_equal(control, before)
        assert not np.shares_memory(got, control)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_decasteljau_batch_pins_triangle_apex(self, shift, dim):
        # bit for bit, at every degree up to MAX_DEGREE
        for curve, ts in pinned_curves(*shift, dim):
            got = _kernels.decasteljau_batch(curve.control, *curve.domain.weights(ts))
            want = np.array([decasteljau_triangle(curve, t).apex for t in ts])
            assert_bits_equal(got, want, f"degree {curve.degree}")

    @pytest.mark.parametrize("dim", [1, 3])
    def test_float_weights_match_one_sample_arrays(self, dim):
        # bit for bit, at every degree up to MAX_DEGREE, with both ends
        rng = np.random.default_rng(dim)
        for n in range(1, MAX_DEGREE + 1):
            control = rng.uniform(-5, 5, size=(n + 1, dim))
            for wr in [0.0, 1.0, *rng.uniform(size=5).tolist()]:
                wl = 1.0 - wr
                arrays = np.array([wl]), np.array([wr])
                assert_bits_equal(
                    _kernels.basis_rows_batch(wl, wr, binomial_row(n)),
                    _kernels.basis_rows_batch(*arrays, binomial_row(n))[0],
                    f"rows, degree {n}, wr {wr!r}",
                )
                assert_bits_equal(
                    _kernels.decasteljau_batch(control, wl, wr),
                    _kernels.decasteljau_batch(control, *arrays)[0],
                    f"pyramid, degree {n}, wr {wr!r}",
                )

    def test_patch_grid_matches_einsum(self):
        rng = np.random.default_rng(3)
        for m, n, samples_u, samples_v in [(4, 3, 6, 5), (11, 11, 301, 301)]:
            net = rng.uniform(-2, 2, size=(m, n, 3))
            rows_u = rng.uniform(size=(samples_u, m))
            rows_v = rng.uniform(size=(samples_v, n))
            got = _kernels.patch_grid(net, rows_u, rows_v)
            want = np.einsum("ui,ijc,vj->uvc", rows_u, net, rows_v)
            np.testing.assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_patch_grid_one_row_matches_one_sample_rows(self, dim):
        # bit for bit: one row per direction is eval_patch's call
        rng = np.random.default_rng(dim)
        for m, n in [(1, 1), (2, 5), (7, 3), (MAX_DEGREE, 4)]:
            net = rng.uniform(-5, 5, size=(m + 1, n + 1, dim))
            for _ in range(5):
                row_u, row_v = rng.uniform(size=m + 1), rng.uniform(size=n + 1)
                assert_bits_equal(
                    _kernels.patch_grid(net, row_u, row_v),
                    _kernels.patch_grid(net, row_u[None], row_v[None])[0, 0],
                    f"degrees {(m, n)}",
                )


def _blend_step(points):
    """Rows per block of ``_kernels.blend`` for these points."""
    return max(1, _kernels._BLEND_BUDGET // points.size)


class TestBlend:
    def test_one_row(self):
        rng = np.random.default_rng(5)
        row = rng.uniform(size=7)
        for points in (rng.uniform(-2, 2, size=(7, 3)), rng.uniform(-2, 2, size=(7, 4, 3))):
            got = _kernels.blend(row, points)
            assert got.shape == points.shape[1:]
            np.testing.assert_allclose(got, np.einsum("k,k...->...", row, points), atol=1e-13)

    @pytest.mark.parametrize("shape", [(11, 3), (7, 7, 3), (65, 1)])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_many_rows_around_a_block(self, shape, offset):
        # one row, and one block less one row, exactly or plus one row
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        points = rng.uniform(-2, 2, size=shape)
        count = 1 if offset is None else _blend_step(points) + offset
        rows = rng.uniform(size=(count, shape[0]))
        got = _kernels.blend(rows, points)
        assert got.shape == (count, *shape[1:])
        want = np.einsum("sk,k...->s...", rows, points)
        np.testing.assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("shape", [(11, 1), (65, 195), (65, 65, 3), (2, 200_000)])
    def test_each_product_stays_within_the_budget(self, shape, monkeypatch):
        # a one-row product may exceed it: one row is never split
        rng = np.random.default_rng(6)
        points = rng.uniform(-2, 2, size=shape)
        rows = rng.uniform(size=(3 * _blend_step(points) + 2, shape[0]))
        sizes = []
        matmul = np.matmul

        def counted(a, b, **kwargs):
            sizes.append((a.shape[0], a.shape[0] * b.size))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(_kernels.np, "matmul", counted)
        got = _kernels.blend(rows, points)
        monkeypatch.undo()
        assert sum(count for count, _ in sizes) == len(rows)
        assert [s for count, s in sizes if count > 1 and s > _kernels._BLEND_BUDGET] == []
        np.testing.assert_allclose(got, np.einsum("sk,k...->s...", rows, points), atol=1e-13)

    @pytest.mark.parametrize("count", [None, 1, 3000])
    def test_leaves_read_only_inputs_alone(self, count):
        rng = np.random.default_rng(8)
        rows = rng.uniform(size=9 if count is None else (count, 9))
        points = rng.uniform(-5, 5, size=(9, 4, 3))
        copies = [a.copy() for a in (rows, points)]
        want = _kernels.blend(*copies)
        for a in (rows, points):
            a.setflags(write=False)
        got = _kernels.blend(rows, points)
        assert_bits_equal(got, want)
        for a, before in zip((rows, points), copies):
            assert_bits_equal(a, before)
            assert not np.shares_memory(got, a)


class TestScalarBatchConsistency:
    def test_single_parameter_matches_row(self):
        cfg = make_config(4, 6)
        t = 0.6
        np.testing.assert_array_equal(
            basis_rows(cfg, 3, [t])[0], basis_row(cfg, 3, t)
        )

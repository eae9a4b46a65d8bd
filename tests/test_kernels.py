import ast
import functools
import itertools
import math
import operator
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
from _helpers import PIN_SHIFTS, assert_bits_equal, pinned_curves, random_curve


def _running_product_row(wl, wr, binom):
    """Basis row at one float pair: ``(wr**k * binom[k]) * wl**(n - k)``,
    each power a running product of Python floats from 1.0."""
    n = len(binom) - 1
    low = list(itertools.accumulate([wl] * n, operator.mul, initial=1.0))
    high = itertools.accumulate([wr] * n, operator.mul, initial=1.0)
    return [h * b * low[n - k] for k, (h, b) in enumerate(zip(high, binom))]


def _exact_entry(wl, wr, n, k):
    """``C(n, k) wr**k wl**(n - k)`` exactly, at the float weights."""
    return math.comb(n, k) * Fraction(float(wr)) ** k * Fraction(float(wl)) ** (n - k)


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
    def test_basis_rows_pin_running_products(self, samples):
        # bit for bit, at every degree up to MAX_DEGREE, with both ends
        rng = np.random.default_rng(samples)
        for n in range(1, MAX_DEGREE + 1):
            wr = rng.uniform(size=samples)
            wr[: min(samples, 2)] = [0.0, 1.0][: samples]
            wl = 1.0 - wr
            binom = [float(math.comb(n, k)) for k in range(n + 1)]
            want = np.array([_running_product_row(a, b, binom)
                             for a, b in zip(wl.tolist(), wr.tolist())])
            assert_bits_equal(_kernels.basis_rows_batch(wl, wr, binomial_row(n)), want, f"{n}")

    @pytest.mark.parametrize("family", ["regular", "tiny"])
    def test_basis_rows_error_bound(self, family):
        # against the exact products at the float weights, at every degree:
        # n + 1 roundings make gamma = (n+1)u / (1 - (n+1)u), u = 2**-53.
        # Regular weights keep every partial product normal or zero, so an
        # entry at or above DBL_MIN is within gamma relative and an
        # underflowing one within (n+1) 2**-1074 absolute. The powers of
        # tiny weights pass through the subnormals, where each product may
        # lose 2**-1075 and the binomial scales that loss up to C(n, k).
        rng = np.random.default_rng(7)
        if family == "regular":
            wr = [0.0, 1.0, -0.0, 2**-15, 1 - 2**-15, 1e-3, *rng.uniform(size=6)]
        else:
            wr = [5e-324, 1e-300, 1e-160, 1e-30, 1e-9, 2**-40, 2**-53]
        w = np.array(wr)
        tiny = Fraction(float(np.finfo(np.float64).tiny))
        for n in range(1, MAX_DEGREE + 1):
            gamma = (n + 1) * Fraction(2**-53) / (1 - (n + 1) * Fraction(2**-53))
            for wl, wr in ((1.0 - w, w), (w, 1.0 - w)):
                got = _kernels.basis_rows_batch(wl, wr, binomial_row(n))
                for (s, k), value in np.ndenumerate(got):
                    exact = _exact_entry(wl[s], wr[s], n, k)
                    err = abs(Fraction(value) - exact)
                    if family == "tiny":
                        bound = gamma * abs(exact) + (n + 1) * math.comb(n, k) * Fraction(2**-1074)
                    elif abs(exact) >= tiny:
                        bound = gamma * abs(exact)
                    else:
                        bound = (n + 1) * Fraction(2**-1074)
                    assert err <= bound, (n, k, wl[s], wr[s])

    def test_basis_rows_peak_memory(self):
        # the one (n+1, S) buffer, which the output views, and one sample
        # row of temporaries, at degree 10 with 10 000 samples
        wr = np.random.default_rng(9).uniform(size=10_000)
        wl = 1.0 - wr
        buffer, row = 11 * 10_000 * 8, 10_000 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _kernels.basis_rows_batch(wl, wr, binomial_row(10))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= buffer + row + 64 * 1024

    @pytest.mark.parametrize("samples", [2, 7, 5000])
    def test_basis_rows_are_the_transposed_buffer(self, samples):
        # entry k fills row k of one (n+1, S) buffer: the (S, n+1) output
        # is its transpose, Fortran-ordered, not a copy
        wr = np.random.default_rng(samples).uniform(size=samples)
        for n in (1, 10, MAX_DEGREE):
            rows = _kernels.basis_rows_batch(1.0 - wr, wr, binomial_row(n))
            assert rows.shape == (samples, n + 1)
            assert rows.flags.f_contiguous and not rows.flags.c_contiguous

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blend_keeps_the_bits_of_c_ordered_rows(self, dim):
        # basis rows come Fortran-ordered, and OpenBLAS rounds a transposed
        # operand otherwise: gemv at every degree, gemm from degree 15 on
        rng = np.random.default_rng(dim)
        for n in (1, 3, 10, 15, 16, 40, MAX_DEGREE):
            for samples in (2, 97, 5000):
                wr = rng.uniform(size=samples)
                rows = _kernels.basis_rows_batch(1.0 - wr, wr, binomial_row(n))
                points = rng.uniform(-5, 5, size=(n + 1, dim))
                want = _kernels.blend(np.ascontiguousarray(rows), points)
                assert_bits_equal(_kernels.blend(rows, points), want, f"{n}, {samples}")

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
    @pytest.mark.parametrize("degree", [1, 2, 5, 10, MAX_DEGREE])
    def test_decasteljau_batch_pins_triangle_apex_across_row_blocks(self, degree, dim):
        # bit for bit, in blocks of one row, of some rows and of whole
        # levels: blocks of k rows come at budget // (dim * k) samples
        rng = np.random.default_rng(degree)
        curve = random_curve(rng, degree=degree, dim=dim, config=make_config(4.0, 6.0))
        dom = curve.domain
        inner = np.clip(dom.lo + rng.uniform(size=10) * dom.width, dom.lo, dom.hi)
        params = np.concatenate([dom.grid(7), inner])
        apexes = np.array([decasteljau_triangle(curve, t).apex for t in params])
        for block in sorted({1, 2, (degree + 1) // 2, degree, degree + 1}):
            samples = _kernels._PYRAMID_BUDGET // (dim * block)
            pick = rng.integers(len(params), size=samples)
            got = _kernels.decasteljau_batch(curve.control, *dom.weights(params[pick]))
            assert_bits_equal(got, apexes[pick], f"{samples} samples")
        got = _kernels.decasteljau_batch(curve.control, *dom.weights(params[:0]))
        assert got.shape == (0, dim)

    def test_decasteljau_batch_peak_memory(self):
        # the pyramid buffer, one row of scratch and the output, at degree
        # 10 with 10 000 samples of 3 coordinates
        rng = np.random.default_rng(5)
        control = rng.uniform(-5, 5, size=(11, 3))
        wr = rng.uniform(size=10_000)
        wl = 1.0 - wr
        row = 3 * 10_000 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _kernels.decasteljau_batch(control, wl, wr)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 11 * row + row + row + 64 * 1024

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_float_weights_match_one_sample_arrays(self, dim):
        # bit for bit, at every degree up to MAX_DEGREE, with both ends and
        # signed zeros among the points: polygons of at most
        # _LIST_PYRAMID_MAX doubles take the list loop, larger ones numpy's.
        # Besides the ends, the weights are a domain's at random parameters,
        # so that wl is not always 1 - wr: a kernel that recomputed one
        # weight from the other would fail here.
        rng = np.random.default_rng(dim)
        sides, unpaired = set(), 0
        for n in range(1, MAX_DEGREE + 1):
            control = rng.uniform(-5, 5, size=(n + 1, dim))
            zeros = rng.uniform(size=control.shape) < 1 / 3
            control[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            sides.add(control.size <= _kernels._LIST_PYRAMID_MAX)
            pairs = [(1.0 - wr, wr) for wr in [0.0, 1.0, -0.0]]
            for shift in PIN_SHIFTS:
                dom = domain(make_config(*shift), n)
                ts = [dom.admit(dom.from_unit(s), True) for s in rng.uniform(size=2).tolist()]
                pairs += [dom.weights(t) for t in ts]
            unpaired += sum(wl != 1.0 - wr for wl, wr in pairs)
            for wl, wr in pairs:
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
                assert_bits_equal(
                    _kernels.step_products(control, wl, wr),
                    _kernels.step_products(control, *arrays)[0],
                    f"step matrices, degree {n}, wr {wr!r}",
                )
        assert sides == {True, False}
        assert unpaired > 0

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


def _rising_sum(rows, points):
    """``rows @ points`` in Python floats: each coordinate is the first term
    ``rows[s][0] * points[0][c]`` plus each later term in rising ``k``."""
    cols = list(zip(*points))
    return [[functools.reduce(operator.add, map(operator.mul, row, col)) for col in cols]
            for row in rows]


class TestCombine:
    @pytest.mark.parametrize("samples", [1, 7, 5000])
    def test_pins_the_rising_sum(self, samples):
        # bit for bit, at every degree up to MAX_DEGREE, with both domain
        # ends and signed zeros among the points, on the basis rows' own
        # Fortran-ordered layout and on C-ordered rows
        rng = np.random.default_rng(samples)
        for n, dim in itertools.product(range(1, MAX_DEGREE + 1), (1, 3)):
            wr = rng.uniform(size=samples)
            wr[: min(samples, 2)] = [0.0, 1.0][:samples]
            rows = _kernels.basis_rows_batch(1.0 - wr, wr, binomial_row(n))
            points = rng.uniform(-5, 5, size=(n + 1, dim))
            zeros = rng.uniform(size=points.shape) < 1 / 4
            points[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            want = np.array(_rising_sum(rows.tolist(), points.tolist()))
            got = _kernels.combine(rows, points)
            assert got.flags.f_contiguous
            assert_bits_equal(got, want, f"degree {n}, dim {dim}")
            assert_bits_equal(_kernels.combine(np.ascontiguousarray(rows), points), want)
            assert_bits_equal(_kernels.combine(rows[0].copy(), points), want[0])

    def test_all_negative_zero_terms_keep_their_sign(self):
        # a sum that starts from its first term, not from +0.0
        points = np.array([[-0.0, 1.0], [-0.0, -0.0]])
        for rows in (np.array([1.0, 0.5]), np.array([[1.0, 0.5], [0.25, 0.0]])):
            want = np.array(_rising_sum(np.atleast_2d(rows).tolist(), points.tolist()))
            assert_bits_equal(_kernels.combine(rows, points), want.reshape(rows.shape[:-1] + (2,)))
            assert np.signbit(_kernels.combine(rows, points)[..., 0]).all()

    def test_leaves_read_only_inputs_alone(self):
        rng = np.random.default_rng(11)
        wr = rng.uniform(size=300)
        rows = _kernels.basis_rows_batch(1.0 - wr, wr, binomial_row(9))
        points = rng.uniform(-5, 5, size=(10, 3))
        copies = [a.copy() for a in (rows, points)]
        for a in (rows, points):
            a.setflags(write=False)
        for r in (rows, rows[0]):
            got = _kernels.combine(r, points)
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


# OpenBLAS's per-CPU kernels and its thread split set the last bits of its
# products (ROADMAP, Baseline and item 13), so every BLAS call of the package
# is kept in _kernels, where one reading finds them all.
_BLAS_FUNCTIONS = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot"}


def _blas_calls(path):
    """``line: what`` of each ``@`` and each call of a BLAS function in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _BLAS_FUNCTIONS:
                found.append(f"{node.lineno}: {name}")
    return found


class TestBlasBoundary:
    def test_only_kernels_calls_blas(self):
        modules = sorted(Path(_kernels.__file__).parent.glob("*.py"))
        assert len(modules) > 5
        found = {path.name: _blas_calls(path) for path in modules if path.name != "_kernels.py"}
        assert {name: calls for name, calls in found.items() if calls} == {}
        # the walk finds what it looks for: blend's and the step products' calls
        assert len(_blas_calls(Path(_kernels.__file__))) == 3

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftknot import (
    MAX_DEGREE,
    ConstraintError,
    Curve,
    DomainError,
    DomainInterval,
    SurfacePatch,
    basis_derivative,
    basis_row,
    basis_row_by_recurrence,
    basis_rows,
    basis_value,
    basis_value_in_frame,
    binomial_row,
    decasteljau_triangle,
    domain,
    elevate_many,
    elevation_matrix,
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
    step_matrix,
)
from shiftknot import _kernels
from shiftknot.basis import _domain

import _classical
from _helpers import PIN_SHIFTS, assert_bits_equal, assert_pinned, point_params, random_config

EPS = float(np.finfo(np.float64).eps)


class TestConfig:
    def test_classical_pair_is_valid(self):
        cfg = make_config(0, 0)
        assert cfg.alpha == 0.0 and cfg.beta == 0.0 and cfg.is_classical

    def test_shifted_pair_is_valid(self):
        cfg = make_config(4, 6)
        assert (cfg.alpha, cfg.beta) == (4.0, 6.0)
        assert not cfg.is_classical

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (6, 4),
            (-1, 2),
            (2, -1),
            (float("nan"), 1),
            pytest.param(10**400, 10**401, id="int-beyond-float"),
        ],
    )
    def test_invalid_pairs_rejected(self, alpha, beta):
        with pytest.raises(ConstraintError):
            make_config(alpha, beta)

    def test_config_is_immutable(self):
        cfg = make_config(1, 2)
        with pytest.raises(AttributeError):
            cfg.alpha = 3.0


class TestDomain:
    def test_shifted_interval(self):
        dom = domain(make_config(4, 6), 3)
        assert dom.lo == 4.0 / 9.0
        assert dom.hi == 7.0 / 9.0
        assert dom.degree == 3

    def test_equal_shifts_interval(self):
        dom = domain(make_config(2, 2), 2)
        assert (dom.lo, dom.hi) == (0.5, 1.0)

    def test_classical_interval(self):
        dom = domain(make_config(0, 0), 5)
        assert (dom.lo, dom.hi) == (0.0, 1.0)

    def test_degree_zero_rejected(self):
        with pytest.raises(ConstraintError):
            domain(make_config(1, 2), 0)

    def test_degree_above_cap_rejected(self):
        with pytest.raises(ConstraintError):
            domain(make_config(0, 0), MAX_DEGREE + 1)

    def test_interval_is_ordered_for_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            cfg = random_config(rng)
            dom = domain(cfg, int(rng.integers(1, 13)))
            assert dom.lo < dom.hi
            assert dom.lo >= 0.0

    def test_interval_is_shared(self):
        cfg = make_config(4, 6)
        assert domain(cfg, np.int64(2)) is domain(cfg, 2)
        assert domain(make_config(4.0, 6.0), 2) is domain(cfg, 2)

    def test_interval_cache_is_bounded(self):
        assert _domain.cache_info().maxsize is not None

    @pytest.mark.parametrize("first", [0.0, -0.0], ids=repr)
    def test_zero_alpha_keeps_its_sign(self, first):
        # make_config(-0.0, 0) == make_config(0.0, 0), yet the CLI prints
        # "domain": [-0, 1] for the former, whichever was built first
        for n in range(1, MAX_DEGREE + 1):
            for alpha in (first, -first):
                lo = domain(make_config(alpha, 0), n).lo
                assert math.copysign(1.0, lo) == math.copysign(1.0, alpha), (n, alpha)

    def test_grid_keeps_both_endpoints(self):
        # np.linspace(-0.0, 1.0, n)[0] is +0.0
        assert repr(float(domain(make_config(-0.0, 0), 3).grid(5)[0])) == "-0.0"
        for alpha, beta in ((0.0, 0.0), (4.0, 6.0), (1e8, 1e9)):
            dom = domain(make_config(alpha, beta), 3)
            ts = dom.grid(7)
            assert (float(ts[0]), float(ts[-1])) == (dom.lo, dom.hi)

    @pytest.mark.parametrize("n", [1, 3, MAX_DEGREE])
    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_admission_bounds_pin_the_slack_formula(self, shift, n):
        # a few ulps of roundoff are forgiven, and not one float more
        dom = domain(make_config(*shift), n)
        slack = 32.0 * EPS * max(1.0, abs(dom.lo), abs(dom.hi))
        for edge, end, away in ((dom.lo - slack, dom.lo, -math.inf),
                                (dom.hi + slack, dom.hi, math.inf)):
            assert dom.admit(edge) == end
            assert dom.admit_array([edge])[0] == end
            beyond = float(np.nextafter(edge, away))
            with pytest.raises(DomainError, match="outside"):
                dom.admit(beyond)
            with pytest.raises(DomainError, match="outside"):
                dom.admit_array([beyond])
            assert dom.admit(beyond, clamp=True) == end
            assert dom.admit_array([beyond], clamp=True)[0] == end

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=repr)
    def test_admission_rejects_non_finite(self, t, clamp):
        for shift in PIN_SHIFTS:
            for n in (1, 3, MAX_DEGREE):
                with pytest.raises(DomainError, match="parameter must be finite"):
                    domain(make_config(*shift), n).admit(t, clamp)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, -0.0], ids=repr)
    def test_admission_returns_an_equal_end_itself(self, alpha, clamp):
        # the zero of the other sign equals lo, so it admits as lo, sign and all
        for n in (1, 3, MAX_DEGREE):
            dom = domain(make_config(alpha, 0), n)
            for t in (0.0, -0.0):
                assert repr(dom.admit(t, clamp)) == repr(alpha), (n, t)
            got = dom.admit_array([-alpha, 0.5, alpha, -alpha, dom.hi], clamp)
            assert_bits_equal(got, np.array([alpha, 0.5, alpha, alpha, dom.hi]), f"degree {n}")

    def test_unit_maps_roundtrip(self):
        dom = domain(make_config(4, 6), 3)
        for s in np.linspace(0, 1, 7):
            assert dom.weights(dom.from_unit(s))[1] == pytest.approx(s, abs=1e-14)


class TestBasisValue:
    def test_shifted_frozen_value(self):
        # exact value 36288/91125, cross-checked by the rational reference
        val = basis_value(make_config(4, 6), (3, 1), 0.6)
        assert val == pytest.approx(36288 / 91125, rel=1e-14)

    def test_classical_midpoint(self):
        assert basis_value(make_config(0, 0), (2, 1), 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_endpoint_interpolation(self):
        cfg = make_config(4, 6)
        dom = domain(cfg, 3)
        assert basis_value(cfg, (3, 0), dom.lo) == pytest.approx(1.0, abs=1e-14)
        assert basis_value(cfg, (3, 3), dom.hi) == pytest.approx(1.0, abs=1e-14)
        assert basis_value(cfg, (3, 2), dom.lo) == 0.0
        assert basis_value(cfg, (3, 1), dom.hi) == 0.0

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            basis_value(make_config(4, 6), (3, 1), 0.3)

    def test_clamp_pulls_to_endpoint(self):
        cfg = make_config(4, 6)
        dom = domain(cfg, 3)
        assert basis_value(cfg, (3, 0), 0.3, clamp=True) == basis_value(cfg, (3, 0), dom.lo)

    def test_invalid_index_rejected(self):
        with pytest.raises(IndexError):
            basis_value(make_config(0, 0), (3, 4), 0.5)
        with pytest.raises(IndexError):
            basis_value(make_config(0, 0), (3, -1), 0.5)

    @pytest.mark.parametrize("alpha,beta", [(4, 6), (1e3, 1e4), (1e8, 1e9)])
    def test_endpoints_interpolate_exactly(self, alpha, beta):
        # C(n, 0) and C(n, n) are exactly 1, and so are the end values
        cfg = make_config(alpha, beta)
        for n in range(1, MAX_DEGREE + 1):
            dom = domain(cfg, n)
            assert basis_value(cfg, (n, 0), dom.lo) == 1.0
            assert basis_value(cfg, (n, n), dom.hi) == 1.0
            assert basis_row(cfg, n, dom.lo)[0] == 1.0
            assert basis_row(cfg, n, dom.hi)[-1] == 1.0

    def test_wide_shift_at_max_degree_stays_finite(self):
        cfg = make_config(1e6, 1e7)
        dom = domain(cfg, 64)
        t = dom.lo + 0.37 * dom.width
        values = [basis_value(cfg, (64, k), t) for k in range(65)]
        slopes = [basis_derivative(cfg, (64, k), t) for k in range(65)]
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(slopes))
        np.testing.assert_allclose(values, basis_rows(cfg, 64, [t])[0], rtol=4 * EPS, atol=0)

    def test_scalar_matches_row_across_the_box(self):
        rng = np.random.default_rng(2015)
        for _ in range(200):
            beta = 10 ** rng.uniform(0, 9)
            cfg = make_config(beta * rng.uniform(), beta)
            n = int(rng.integers(1, MAX_DEGREE + 1))
            t = domain(cfg, n).from_unit(rng.uniform())
            vals = [basis_value(cfg, (n, k), t) for k in range(n + 1)]
            np.testing.assert_allclose(vals, basis_row(cfg, n, t), rtol=4 * EPS, atol=0)


def _power(w, m):
    """``w**m`` as a running product of Python floats from 1.0."""
    out = 1.0
    for _ in range(m):
        out *= w
    return out


def _value_closed_form(cfg, n, k, t, clamp):
    dom = domain(cfg, n)
    wl, wr = dom.weights(dom.admit(t, clamp))
    return float(_power(wr, k) * float(math.comb(n, k)) * _power(wl, n - k))


def _derivative_closed_form(cfg, n, k, t, clamp):
    dom = domain(cfg, n)
    wl, wr = dom.weights(dom.admit(t, clamp))
    rising = k * _power(wr, k - 1) * _power(wl, n - k) if k > 0 else 0.0
    falling = (n - k) * _power(wr, k) * _power(wl, n - k - 1) if k < n else 0.0
    return float(float(math.comb(n, k)) * (rising - falling) / dom.width)


class TestScalarPins:
    """``basis_value`` and ``basis_derivative`` equal their closed forms,
    written out here with each power a running product, bit for bit at
    every degree and position, both ends, random points and points past
    the ends."""

    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    @pytest.mark.parametrize("route, closed_form", [
        (basis_value, _value_closed_form),
        (basis_derivative, _derivative_closed_form),
    ], ids=["basis_value", "basis_derivative"])
    def test_pins_closed_form(self, shift, route, closed_form):
        cfg = make_config(*shift)
        for n in range(1, MAX_DEGREE + 1):
            params = [(t,) for t in point_params(domain(cfg, n), seed=n)]
            for k in range(n + 1):
                assert_pinned(
                    lambda t, clamp: route(cfg, (n, k), t, clamp=clamp),
                    lambda t, clamp: closed_form(cfg, n, k, t, clamp),
                    params,
                    f"degree {n}, position {k}",
                )


class TestBasisRow:
    def test_shifted_frozen_row(self):
        row = basis_row(make_config(4, 6), 3, 0.6)
        expected = np.array([13824, 36288, 31752, 9261]) / 91125
        np.testing.assert_allclose(row, expected, rtol=1e-13)

    def test_right_endpoint_unit_vector(self):
        row = basis_row(make_config(4, 6), 3, 7.0 / 9.0)
        np.testing.assert_allclose(row, [0, 0, 0, 1], atol=1e-14)

    def test_classical_linear_row(self):
        np.testing.assert_allclose(basis_row(make_config(0, 0), 1, 0.25), [0.75, 0.25])

    def test_row_matches_scalar_values(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cfg = random_config(rng)
            n = int(rng.integers(1, 13))
            t = domain(cfg, n).from_unit(rng.uniform())
            row = basis_row(cfg, n, t)
            vals = [basis_value(cfg, (n, k), t) for k in range(n + 1)]
            np.testing.assert_allclose(row, vals, rtol=1e-12, atol=1e-15)

    def test_batch_shape_and_consistency(self):
        cfg = make_config(4, 6)
        ts = domain(cfg, 3).grid(17)
        rows = basis_rows(cfg, 3, ts)
        assert rows.shape == (17, 4)
        np.testing.assert_array_equal(rows[5], basis_row(cfg, 3, ts[5]))

    def test_high_degree_partition_still_tight(self):
        cfg = make_config(3, 11)
        rows = basis_rows(cfg, 40, domain(cfg, 40).grid(50))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_row_pins_batch_row(self, shift):
        # bit for bit, at every degree up to MAX_DEGREE
        cfg = make_config(*shift)
        for n in range(1, MAX_DEGREE + 1):
            assert_pinned(
                lambda t, clamp: basis_row(cfg, n, t, clamp=clamp),
                lambda t, clamp: basis_rows(cfg, n, [t], clamp=clamp)[0],
                [(t,) for t in point_params(domain(cfg, n), seed=n)],
                f"degree {n}",
            )

    @pytest.mark.parametrize("shift", PIN_SHIFTS)
    def test_value_pins_row_entry(self, shift):
        # bit for bit, at every degree and position: one set of bits per
        # basis value, whichever route computes it
        cfg = make_config(*shift)
        for n in range(1, MAX_DEGREE + 1):
            for k in range(n + 1):
                assert_pinned(
                    lambda t, clamp: basis_value(cfg, (n, k), t, clamp=clamp),
                    lambda t, clamp: basis_row(cfg, n, t, clamp=clamp)[k],
                    [(t,) for t in point_params(domain(cfg, n), seed=n)],
                    f"degree {n}, position {k}",
                )


_CURVE = Curve(make_config(4, 6), np.arange(8.0).reshape(4, 2))
_PATCH = SurfacePatch(make_config(4, 6), np.arange(24.0).reshape(4, 2, 3))
_T = _CURVE.domain.from_unit(0.3)
_U, _V = _PATCH.domain_u.from_unit(0.3), _PATCH.domain_v.from_unit(0.6)
SINGLE_POINT_ROUTES = {
    "basis_value": lambda: basis_value(_CURVE.config, (3, 1), _T),
    "basis_derivative": lambda: basis_derivative(_CURVE.config, (3, 1), _T),
    "basis_row": lambda: basis_row(_CURVE.config, 3, _T),
    "basis_row_by_recurrence": lambda: basis_row_by_recurrence(_CURVE.config, 3, _T),
    "step_matrix": lambda: step_matrix(_CURVE.config, 3, 1, _T),
    "eval_direct": lambda: eval_direct(_CURVE, _T),
    "eval_decasteljau": lambda: eval_decasteljau(_CURVE, _T),
    "eval_matrix_form": lambda: eval_matrix_form(_CURVE, _T),
    "eval_patch": lambda: eval_patch(_PATCH, _U, _V),
    "eval_patch_decasteljau": lambda: eval_patch_decasteljau(_PATCH, _U, _V),
    "isoparam_u": lambda: isoparam_u(_PATCH, _V),
    "isoparam_v": lambda: isoparam_v(_PATCH, _U),
}


class TestSinglePointAdmission:
    """Single-point routes admit one scalar into a shared domain. The
    benchmark's traced admission time, basis-row kernel time and domain
    builds per evaluation count these very calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        for name in ("admit", "admit_array", "__post_init__"):
            original = getattr(DomainInterval, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(DomainInterval, name, counted)
        return calls

    @pytest.mark.parametrize("route, admits", [
        ("eval_direct", 1), ("eval_patch", 2), ("eval_decasteljau", 1),
        ("eval_matrix_form", 1), ("eval_patch_decasteljau", 2), ("basis_value", 1),
    ])
    def test_scalar_admission(self, calls, route, admits):
        SINGLE_POINT_ROUTES[route]()
        assert (calls["admit"], calls["admit_array"]) == (admits, 0)

    @pytest.mark.parametrize("route, rows", [("eval_direct", 1), ("eval_patch", 2)])
    def test_rows_through_the_kernel_attribute(self, monkeypatch, route, rows):
        calls = []
        kernel = _kernels.basis_rows_batch
        monkeypatch.setattr(_kernels, "basis_rows_batch",
                            lambda *args: calls.append(1) or kernel(*args))
        SINGLE_POINT_ROUTES[route]()
        assert len(calls) == rows

    @pytest.mark.parametrize("route", list(SINGLE_POINT_ROUTES))
    def test_second_call_builds_no_domain(self, calls, route):
        SINGLE_POINT_ROUTES[route]()
        built = calls["__post_init__"]
        SINGLE_POINT_ROUTES[route]()
        assert calls["__post_init__"] == built


# each batch route with one parameter inside its domain
BATCH_ROUTES = {
    "admit_array": (lambda ts: _CURVE.domain.admit_array(ts), _T),
    "basis_rows": (lambda ts: basis_rows(_CURVE.config, 3, ts), _T),
    **{
        f"sample_curve.{algorithm}": (
            lambda ts, _algorithm=algorithm: sample_curve(_CURVE, ts, algorithm=_algorithm),
            _T,
        )
        for algorithm in ("direct", "decasteljau", "matrix")
    },
    "sample_patch.u": (lambda ts: sample_patch(_PATCH, ts, [_V]), _U),
    "sample_patch.v": (lambda ts: sample_patch(_PATCH, [_U], ts), _V),
}


@pytest.mark.parametrize("route", list(BATCH_ROUTES))
def test_batch_routes_reject_a_zero_dimensional_parameter(route):
    # a lone float is not a one-sample array
    call, t = BATCH_ROUTES[route]
    assert len(call([t])) == 1
    for ts in (t, np.float64(t), np.array(t)):
        with pytest.raises(ConstraintError, match="one-dimensional"):
            call(ts)


class TestRecurrence:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            cfg = random_config(rng)
            n = int(rng.integers(1, 13))
            t = domain(cfg, n).from_unit(rng.uniform())
            np.testing.assert_allclose(
                basis_row_by_recurrence(cfg, n, t),
                basis_row(cfg, n, t),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_degree_one_left_endpoint(self):
        # base case: the left endpoint selects the first function
        cfg = make_config(4, 6)
        row = basis_row_by_recurrence(cfg, 1, domain(cfg, 1).lo)
        np.testing.assert_allclose(row, [1.0, 0.0], atol=1e-14)

    def test_classical_quadratic_midpoint(self):
        row = basis_row_by_recurrence(make_config(0, 0), 2, 0.5)
        np.testing.assert_allclose(row, [0.25, 0.5, 0.25], atol=1e-15)

    @pytest.mark.parametrize("shift", [(-0.0, 0.0), *PIN_SHIFTS, (1e15, 1e16)], ids=repr)
    def test_pins_degree_raising_loop(self, shift):
        # bit for bit against the Pascal loop, signed zeros included: both
        # ends (and -0.0 where the domain starts at zero), clamped points a
        # quarter width past either end, and four interior points
        cfg = make_config(*shift)
        for n in range(1, MAX_DEGREE + 1):
            dom = domain(cfg, n)
            quarter = 0.25 * dom.width
            zero = [(-0.0, False)] if dom.lo == 0.0 else []
            params = [
                (dom.lo, False), (dom.hi, False), *zero,
                (dom.lo - quarter, True), (dom.hi + quarter, True),
                *((dom.from_unit(s), False) for s in (0.1, 0.3, 0.6, 0.9)),
            ]
            for t, clamp in params:
                row = basis_row_by_recurrence(cfg, n, t, clamp=clamp)
                want = _raising_loop(n, *dom.weights(dom.admit(t, clamp)))
                assert_bits_equal(row, want, f"degree {n} at {t!r}, clamp={clamp}")


def _raising_loop(n: int, wl: float, wr: float) -> np.ndarray:
    """The basis row by the degree-raising recurrence, one level at a time."""
    row = np.zeros(n + 1)
    row[0] = 1.0
    for m in range(1, n + 1):
        row[m] = wr * row[m - 1]
        for k in range(m - 1, 0, -1):
            row[k] = wr * row[k - 1] + wl * row[k]
        row[0] = wl * row[0]
    return row


def _elevation_weights(n: int, k: int):
    """``(keep, shift)`` of degree-n function k in the degree-(n+1) basis:
    column k of the elevation matrix."""
    E = elevation_matrix(n)
    return E[k, k], E[k + 1, k]


class TestElevationIdentity:
    def test_coefficients_frozen(self):
        assert _elevation_weights(1, 0) == (1.0, 0.5)
        assert _elevation_weights(3, 3) == (0.25, 1.0)
        keep, shift = _elevation_weights(5, 2)
        assert keep == pytest.approx(4 / 6)
        assert shift == pytest.approx(3 / 6)

    @pytest.mark.parametrize("n", [1, 2, 5, MAX_DEGREE])
    def test_matrix_shape(self, n):
        # one row per degree-(n+1) function, one column per degree-n function
        assert elevation_matrix(n).shape == (n + 2, n + 1)

    def test_classical_identity_same_parameter(self):
        # with zero shifts all degrees share [0, 1], so the identity can be
        # checked through plain evaluations
        cfg = make_config(0, 0)
        for t in np.linspace(0, 1, 20):
            for n in range(1, 6):
                for k in range(n + 1):
                    keep, shift = _elevation_weights(n, k)
                    rhs = keep * basis_value(cfg, (n + 1, k), t) + shift * basis_value(
                        cfg, (n + 1, k + 1), t
                    )
                    assert basis_value(cfg, (n, k), t) == pytest.approx(rhs, abs=1e-12)

    def test_framed_identity_shifted(self):
        # general shifts: the degree-(n+1) functions keep the degree-n frame
        rng = np.random.default_rng(42)
        for _ in range(30):
            cfg = random_config(rng)
            n = int(rng.integers(1, 10))
            t = domain(cfg, n).from_unit(rng.uniform())
            for k in range(n + 1):
                keep, shift = _elevation_weights(n, k)
                rhs = keep * basis_value_in_frame(cfg, n, n + 1, k, t) + shift * (
                    basis_value_in_frame(cfg, n, n + 1, k + 1, t)
                )
                assert basis_value(cfg, (n, k), t) == pytest.approx(rhs, abs=1e-12)

    def test_own_domain_identity_at_equal_normalized_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            cfg = random_config(rng)
            n = int(rng.integers(1, 10))
            s = rng.uniform()
            t_n = domain(cfg, n).from_unit(s)
            t_n1 = domain(cfg, n + 1).from_unit(s)
            for k in range(n + 1):
                keep, shift = _elevation_weights(n, k)
                rhs = keep * basis_value(cfg, (n + 1, k), t_n1) + shift * basis_value(
                    cfg, (n + 1, k + 1), t_n1
                )
                assert basis_value(cfg, (n, k), t_n) == pytest.approx(rhs, abs=1e-12)

    def test_raising_products_in_frame(self):
        # multiplying by each interval factor lands one degree higher
        rng = np.random.default_rng(11)
        for _ in range(30):
            cfg = random_config(rng)
            n = int(rng.integers(1, 10))
            dom = domain(cfg, n)
            t = dom.from_unit(rng.uniform())
            back = n / (n + cfg.beta)
            for k in range(n + 1):
                g = basis_value(cfg, (n, k), t)
                hi_side = (n + 1 - k) / (n + 1) * back * basis_value_in_frame(
                    cfg, n, n + 1, k, t
                )
                lo_side = back * (k + 1) / (n + 1) * basis_value_in_frame(
                    cfg, n, n + 1, k + 1, t
                )
                assert (dom.hi - t) * g == pytest.approx(hi_side, abs=1e-12)
                assert (t - dom.lo) * g == pytest.approx(lo_side, abs=1e-12)

    def test_pascal_lowering_in_frame(self):
        # the closed form splits into convex-weighted one-degree-lower terms
        rng = np.random.default_rng(13)
        for _ in range(30):
            cfg = random_config(rng)
            n = int(rng.integers(2, 10))
            dom = domain(cfg, n)
            t = dom.from_unit(rng.uniform())
            factor = (n + cfg.beta) / n
            wl = factor * (dom.hi - t)
            wr = factor * (t - dom.lo)
            for k in range(n + 1):
                lower_left = basis_value_in_frame(cfg, n, n - 1, k - 1, t) if k >= 1 else 0.0
                lower_right = basis_value_in_frame(cfg, n, n - 1, k, t) if k <= n - 1 else 0.0
                expected = wr * lower_left + wl * lower_right
                assert basis_value(cfg, (n, k), t) == pytest.approx(expected, abs=1e-12)


class TestDerivative:
    def test_linear_classical(self):
        cfg = make_config(0, 0)
        assert basis_derivative(cfg, (1, 0), 0.3) == pytest.approx(-1.0)
        assert basis_derivative(cfg, (1, 1), 0.3) == pytest.approx(1.0)

    def test_first_function_at_left_endpoint(self):
        # slope -(n + beta): the first function falls off the unit value
        cfg = make_config(4, 6)
        val = basis_derivative(cfg, (3, 0), 4.0 / 9.0)
        assert val == pytest.approx(-9.0, rel=1e-13)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            cfg = random_config(rng)
            n = int(rng.integers(1, 10))
            k = int(rng.integers(0, n + 1))
            dom = domain(cfg, n)
            t = dom.from_unit(rng.uniform(0.05, 0.95))
            h = 1e-6 * dom.width
            fd = (
                basis_value(cfg, (n, k), t + h) - basis_value(cfg, (n, k), t - h)
            ) / (2 * h)
            exact = basis_derivative(cfg, (n, k), t)
            assert exact == pytest.approx(fd, rel=1e-5, abs=1e-7 * (n + cfg.beta))

    def test_derivatives_sum_to_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cfg = random_config(rng)
            n = int(rng.integers(1, 10))
            t = domain(cfg, n).from_unit(rng.uniform())
            total = sum(basis_derivative(cfg, (n, k), t) for k in range(n + 1))
            assert total == pytest.approx(0.0, abs=1e-10 * (1 + n + cfg.beta))


class TestBinomials:
    def test_small_rows_exact(self):
        np.testing.assert_array_equal(binomial_row(4), [1, 4, 6, 4, 1])
        np.testing.assert_array_equal(binomial_row(12)[6], 924)

    def test_rows_exact_through_max_degree(self):
        # each entry is the float nearest the exact integer
        for n in range(MAX_DEGREE + 1):
            want = np.array([float(math.comb(n, k)) for k in range(n + 1)])
            np.testing.assert_array_equal(binomial_row(n), want)

    def test_max_degree_row_stays_tight(self):
        row = binomial_row(MAX_DEGREE)
        for k in range(MAX_DEGREE + 1):
            exact = math.comb(MAX_DEGREE, k)
            assert abs(row[k] - exact) / exact <= 2e-15


# bounded the same way the float paths are exercised elsewhere: shifts in
# [0, 20], degrees up to 12
shift_pairs = st.tuples(
    st.floats(0.0, 20.0, allow_nan=False), st.floats(0.0, 20.0, allow_nan=False)
).map(lambda ab: (min(ab), max(ab)))


@settings(deadline=None)
@given(shift_pairs, st.integers(1, 12), st.floats(0.0, 1.0, allow_nan=False))
def test_partition_of_unity_property(pair, n, s):
    cfg = make_config(*pair)
    row = basis_row(cfg, n, domain(cfg, n).from_unit(s))
    assert abs(row.sum() - 1.0) <= 1e-12


@settings(deadline=None)
@given(shift_pairs, st.integers(1, 12), st.floats(0.0, 1.0, allow_nan=False))
def test_nonnegativity_property(pair, n, s):
    cfg = make_config(*pair)
    row = basis_row(cfg, n, domain(cfg, n).from_unit(s))
    assert np.all(row >= 0.0)


@settings(deadline=None)
@given(shift_pairs, st.integers(1, 12))
def test_endpoint_rows_are_unit_vectors_property(pair, n):
    cfg = make_config(*pair)
    dom = domain(cfg, n)
    lo_row = basis_row(cfg, n, dom.lo)
    hi_row = basis_row(cfg, n, dom.hi)
    unit0 = np.zeros(n + 1)
    unit0[0] = 1.0
    np.testing.assert_allclose(lo_row, unit0, atol=1e-14)
    np.testing.assert_allclose(hi_row, unit0[::-1], atol=1e-14)


@settings(deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0, allow_nan=False))
def test_classical_reduction_property(n, t):
    row = basis_row(make_config(0, 0), n, t)
    np.testing.assert_allclose(row, _classical.bernstein_row(n, t), atol=1e-14, rtol=1e-14)


_CFG = make_config(4, 6)
# each integer argument: the call, the error it raises, the values it accepts
INTEGER_ARGUMENTS = {
    "domain": (lambda v: domain(_CFG, v), ConstraintError, ()),
    "basis_value.k": (
        lambda v: basis_value(_CFG, (64, v), domain(_CFG, 64).lo),
        IndexError,
        (0,),
    ),
    "step_matrix": (
        lambda v: step_matrix(_CFG, 64, v, domain(_CFG, 64).lo),
        IndexError,
        (),
    ),
    "elevation_matrix": (elevation_matrix, ConstraintError, ()),
    "elevate_many": (
        lambda v: elevate_many(Curve(_CFG, np.zeros((4, 2))), v),
        ConstraintError,
        (),
    ),
    "basis_value_in_frame": (
        lambda v: basis_value_in_frame(_CFG, 3, v, 0, domain(_CFG, 3).lo),
        ConstraintError,
        (0,),
    ),
    "grid": (lambda v: domain(_CFG, 3).grid(v), ConstraintError, (65,)),
    "binomial_row": (binomial_row, ConstraintError, (0,)),
}


@pytest.mark.parametrize("value", [True, 2.0, 0, 65], ids=repr)
@pytest.mark.parametrize("entry", list(INTEGER_ARGUMENTS))
def test_integer_argument_range(entry, value):
    call, error, accepted = INTEGER_ARGUMENTS[entry]
    if type(value) is int and value in accepted:
        call(value)
    else:
        with pytest.raises(error):
            call(value)


@pytest.mark.parametrize("count", [3.0, "5", None], ids=repr)
def test_grid_count_must_be_an_integer(count):
    with pytest.raises(ConstraintError, match=f"sample count must be an integer, got {count!r}"):
        domain(_CFG, 3).grid(count)


@pytest.mark.parametrize("value", [True, 2.0], ids=repr)
@pytest.mark.parametrize("entry", list(INTEGER_ARGUMENTS))
def test_integer_argument_range_after_warm_up(entry, value):
    # True == 1 and 2.0 == 2 as cache keys, so a domain or binomial row
    # cached before its degree is checked would hand these the ones built
    # here; lru_cache keys a plain int apart, but not an np.int64
    for n in (1, 2, 3, 64):
        domain(_CFG, n)
        binomial_row(n)
        binomial_row(np.int64(n))
    test_integer_argument_range(entry, value)


def _zero_end_routes(cfg):
    """Every route that admits a parameter, as ``name: call(t, clamp)``,
    on a degree-3 curve and a degree-(3, 2) patch whose first control point
    holds signed zeros, so a ``-0.0`` weight would show in the output."""
    control = np.array([[-0.0, 0.0], [1.0, -0.0], [-2.0, 3.0], [0.5, -0.0]])
    curve = Curve(cfg, control)
    net = np.random.default_rng(7).choice([-0.0, 0.0, -1.0, 2.0], size=(4, 3, 2))
    net[0, 0] = [-0.0, 0.0]
    patch = SurfacePatch(cfg, net)
    mid = curve.domain.from_unit(0.5)
    routes = {
        "basis_row": lambda t, c: basis_row(cfg, 3, t, clamp=c),
        "basis_rows": lambda t, c: basis_rows(cfg, 3, [t, mid, t], clamp=c),
        "basis_row_by_recurrence": lambda t, c: basis_row_by_recurrence(cfg, 3, t, clamp=c),
        "basis_value": lambda t, c: [basis_value(cfg, (3, k), t, clamp=c) for k in range(4)],
        "basis_value_in_frame": lambda t, c: [
            basis_value_in_frame(cfg, 3, 2, k, t, clamp=c) for k in range(3)
        ],
        "basis_derivative": lambda t, c: [
            basis_derivative(cfg, (3, k), t, clamp=c) for k in range(4)
        ],
        "step_matrix": lambda t, c: step_matrix(cfg, 3, 1, t, clamp=c),
        "eval_direct": lambda t, c: eval_direct(curve, t, clamp=c),
        "eval_decasteljau": lambda t, c: eval_decasteljau(curve, t, clamp=c),
        "eval_matrix_form": lambda t, c: eval_matrix_form(curve, t, clamp=c),
        "decasteljau_triangle": lambda t, c: np.concatenate(
            decasteljau_triangle(curve, t, clamp=c).levels
        ),
        "eval_patch": lambda t, c: [eval_patch(patch, t, t, clamp=c),
                                    eval_patch(patch, t, mid, clamp=c),
                                    eval_patch(patch, mid, t, clamp=c)],
        "eval_patch_decasteljau": lambda t, c: [eval_patch_decasteljau(patch, t, t, clamp=c),
                                                eval_patch_decasteljau(patch, t, mid, clamp=c),
                                                eval_patch_decasteljau(patch, mid, t, clamp=c)],
        "sample_patch": lambda t, c: sample_patch(patch, [t, mid], [mid, t], clamp=c),
        "isoparam_u": lambda t, c: isoparam_u(patch, t, clamp=c).control,
        "isoparam_v": lambda t, c: isoparam_v(patch, t, clamp=c).control,
    }
    for algorithm in ("direct", "decasteljau", "matrix"):
        routes[f"sample_curve[{algorithm}]"] = (
            lambda t, c, a=algorithm: sample_curve(curve, [t, mid, t], algorithm=a, clamp=c)
        )
    return routes


class TestZeroAtTheLowEnd:
    """On a domain whose ``lo`` is a zero, the zero of the other sign
    admits as ``lo`` itself, so every route gives it ``lo``'s bits."""

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, -0.0], ids=repr)
    def test_both_zeros_give_the_bits_of_lo(self, alpha, clamp):
        cfg = make_config(alpha, 0)
        for name, route in _zero_end_routes(cfg).items():
            want = np.array(route(alpha, clamp), dtype=float)
            assert_bits_equal(np.array(route(-alpha, clamp), dtype=float), want, name)

    def test_rows_carry_no_negative_zero(self):
        # the closed form and the pyramid agree on the sign of every zero
        for alpha in (0.0, -0.0):
            cfg = make_config(alpha, 0)
            for t in (0.0, -0.0):
                for n in (1, 2, 3, 12, MAX_DEGREE):
                    row = basis_row(cfg, n, t)
                    assert not np.signbit(row).any(), (alpha, t, n)
                    assert_bits_equal(basis_row_by_recurrence(cfg, n, t), row, f"{alpha, t, n}")

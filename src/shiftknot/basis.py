"""Shifted-knot Bernstein basis functions.

A knot-shift pair ``(alpha, beta)`` with ``0 <= alpha <= beta`` moves the
degree-n Bernstein basis from the unit interval onto

    [alpha / (n + beta), (n + alpha) / (n + beta)]

so the basis of each degree carries its own domain. Setting
``alpha = beta = 0`` recovers the classical basis on [0, 1]. All functions
are pure and all returned containers are immutable or freshly allocated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import MAX_DEGREE
from .errors import ConstraintError, DomainError

__all__ = [
    "MAX_DEGREE",
    "ShiftedKnotConfig",
    "DomainInterval",
    "make_config",
    "domain",
    "binomial_row",
    "basis_value",
    "basis_row",
    "basis_rows",
    "basis_row_by_recurrence",
    "basis_value_in_frame",
    "basis_derivative",
]

_EPS = float(np.finfo(np.float64).eps)

# Intervals kept by domain(), least recently used dropped first: every
# degree of 16 shift pairs.
_DOMAIN_CACHE_SIZE = 16 * MAX_DEGREE


@dataclass(frozen=True)
class ShiftedKnotConfig:
    """Knot-shift parameters, constrained to ``0 <= alpha <= beta``."""

    alpha: float
    beta: float

    def __post_init__(self):
        try:
            alpha = float(self.alpha)
            beta = float(self.beta)
        except OverflowError:
            # an integer beyond float range, such as a JSON literal 10**400
            alpha = beta = math.inf
        except (TypeError, ValueError):
            raise ConstraintError("shift parameters must be real numbers,"
                                  f" got ({self.alpha!r}, {self.beta!r})") from None
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ConstraintError("shift parameters must be finite")
        if alpha < 0 or beta < 0:
            raise ConstraintError(f"shift parameters must be nonnegative, got ({alpha}, {beta})")
        if alpha > beta:
            raise ConstraintError(f"alpha must not exceed beta, got ({alpha}, {beta})")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def is_classical(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0


def make_config(alpha: float, beta: float) -> ShiftedKnotConfig:
    """Validate and freeze a knot-shift pair."""
    return ShiftedKnotConfig(alpha, beta)


@dataclass(frozen=True)
class DomainInterval:
    """Closed parameter interval of one basis degree.

    Besides ``lo``, ``hi`` and ``degree`` it stores, computed once when it
    is built:

    - ``width``, the float ``hi - lo``;
    - the admission bounds ``admit_lo = lo - slack`` and
      ``admit_hi = hi + slack``, where ``slack = 32 eps max(1, |lo|, |hi|)``
      forgives a few ulps of roundoff from caller-side arithmetic.
    """

    lo: float
    hi: float
    degree: int
    width: float = field(init=False, repr=False, compare=False)
    admit_lo: float = field(init=False, repr=False, compare=False)
    admit_hi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConstraintError(f"degenerate interval [{self.lo}, {self.hi}]")
        slack = 32.0 * _EPS * max(1.0, abs(self.lo), abs(self.hi))
        object.__setattr__(self, "width", self.hi - self.lo)
        object.__setattr__(self, "admit_lo", self.lo - slack)
        object.__setattr__(self, "admit_hi", self.hi + slack)

    def admit(self, t: float, clamp: bool = False) -> float:
        """Return ``t`` clipped into the interval, or raise ``DomainError``.

        Strict mode (the default) rejects anything outside the admission
        bounds; ``clamp=True`` pulls any finite value to the nearest end.
        A ``t`` equal to an end comes back as that end itself, so the zero
        of the other sign than ``lo`` is ``lo``.
        """
        try:
            t = float(t)
        except (TypeError, ValueError):
            raise ConstraintError(f"parameter must be a real number, got {t!r}") from None
        if not self.admit_lo <= t <= self.admit_hi:  # NaN fails it too
            if not math.isfinite(t):
                raise DomainError(f"parameter must be finite, got {t!r}")
            if not clamp:
                raise DomainError(
                    f"parameter {t!r} outside [{self.lo!r}, {self.hi!r}]"
                    f" for degree {self.degree}"
                )
        # max and min return their first argument on a tie
        return min(self.hi, max(self.lo, t))

    def admit_array(self, ts, clamp: bool = False) -> np.ndarray:
        try:
            ts = np.asarray(ts, dtype=np.float64)
        except (TypeError, ValueError):
            raise ConstraintError("parameter samples must be real numbers") from None
        if ts.ndim != 1:
            raise ConstraintError("parameter samples must form a one-dimensional array")
        if not np.all(np.isfinite(ts)):
            raise DomainError("parameter samples must be finite")
        if not clamp:
            bad = (ts < self.admit_lo) | (ts > self.admit_hi)
            if bad.any():
                offender = float(ts[bad][0])
                raise DomainError(
                    f"parameter {offender!r} outside [{self.lo!r}, {self.hi!r}]"
                    f" for degree {self.degree}"
                )
        ts = np.clip(ts, self.lo, self.hi)
        if self.lo == 0.0:
            # np.clip keeps a zero whose sign differs from lo's; only a zero
            # lo has an equal value of other bits
            np.copyto(ts, self.lo, where=ts == 0.0)
        return ts

    def weights(self, t):
        """Normalized convex pair ``((hi - t) / width, (t - lo) / width)``.

        ``t`` is an admitted scalar or array. The shifted basis is the
        classical Bernstein basis in this pair; dividing by the width keeps
        it exactly ``(1, 0)`` and ``(0, 1)`` at the ends.
        """
        return (self.hi - t) / self.width, (t - self.lo) / self.width

    def from_unit(self, s: float) -> float:
        """Affinely map ``s`` in [0, 1] onto the interval; :meth:`weights`'
        right weight maps it back."""
        return self.lo + float(s) * self.width

    def grid(self, count: int) -> np.ndarray:
        """Uniform samples including both endpoints exactly."""
        return _grid(self.lo, self.hi, count)


def _grid(lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` uniform samples from ``lo`` to ``hi``, both bit for bit."""
    count = _check_int(count, 2, math.inf, "sample count", ConstraintError)
    ts = np.linspace(lo, hi, count)
    ts[0] = lo  # linspace starts a -0.0 interval at +0.0
    return ts


def _check_int(value, lo: int, hi: float, what: str, error: type[Exception]) -> int:
    """Return ``value`` as an ``int`` in ``lo..hi``, or raise ``error``;
    ``hi`` is ``math.inf`` for no upper bound.

    Bools and floats are rejected even when they equal an integer.
    """
    if type(value) is int and lo <= value <= hi:
        return value
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        if hi == math.inf:
            raise error(f"{what} must be at least {lo}, got {value}")
        raise error(f"{what} {value} outside {lo}..{hi}")
    return value


def domain(config: ShiftedKnotConfig, n: int) -> DomainInterval:
    """Parameter interval carried by the degree-n basis of ``config``.

    Each interval is built once per shift pair and degree and then shared;
    it is immutable.
    """
    n = _check_int(n, 1, MAX_DEGREE, "degree", ConstraintError)
    alpha = config.alpha
    return _domain(alpha, config.beta, n, math.copysign(1.0, alpha))


@functools.lru_cache(maxsize=_DOMAIN_CACHE_SIZE)
def _domain(alpha: float, beta: float, n: int, alpha_sign: float) -> DomainInterval:
    # alpha_sign only keys the cache: 0.0 == -0.0, but each gives lo its own
    # sign. beta's sign cannot reach the interval, as n >= 1 is added to it.
    denom = n + beta
    return DomainInterval(alpha / denom, (n + alpha) / denom, n)


@functools.lru_cache(maxsize=None, typed=True)
def binomial_row(n: int) -> np.ndarray:
    """Binomial coefficients C(n, 0..n), each the float nearest the exact
    integer, so the end entries are exactly 1 at every degree."""
    # typed, or True and 3.0 would hit the rows cached for np.int64(1) and (3)
    n = _check_int(n, 0, MAX_DEGREE, "degree", ConstraintError)
    row = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    row.setflags(write=False)
    return row


def basis_value(config: ShiftedKnotConfig, idx, t: float, *, clamp: bool = False) -> float:
    """Value of one shifted-knot Bernstein basis function.

    ``idx`` is the ``(n, k)`` pair of degree and position. ``t`` must lie
    in the degree-n domain unless ``clamp=True``.
    """
    n, k = idx
    return basis_value_in_frame(config, n, n, k, t, clamp=clamp)


def basis_row(config: ShiftedKnotConfig, n: int, t: float, *, clamp: bool = False) -> np.ndarray:
    """All ``n + 1`` basis values at one parameter, in index order."""
    return _basis_row_on(domain(config, n), t, clamp)


def _basis_row_on(dom: DomainInterval, t: float, clamp: bool) -> np.ndarray:
    """:func:`basis_row` of the degree of an already-built domain, so a
    curve or patch that holds its domains looks none up per point."""
    wl, wr = dom.weights(dom.admit(t, clamp))
    return _kernels.basis_rows_batch(wl, wr, binomial_row(dom.degree))


def basis_rows(config: ShiftedKnotConfig, n: int, ts, *, clamp: bool = False) -> np.ndarray:
    """Basis values at many parameters, shape ``(len(ts), n + 1)``."""
    dom = domain(config, n)
    wl, wr = dom.weights(dom.admit_array(ts, clamp))
    return _kernels.basis_rows_batch(wl, wr, binomial_row(n))


def basis_row_by_recurrence(
    config: ShiftedKnotConfig, n: int, t: float, *, clamp: bool = False
) -> np.ndarray:
    """Basis row built by the de Casteljau pyramid on the identity polygon,
    whose point ``k`` is the unit vector ``e_k``, instead of the closed form.

    After ``m`` levels the first point holds the degree-``m`` row of the
    degree-raising recurrence, which splits each binomial coefficient
    Pascal-style, with the same multiplies and adds. Every level keeps the
    degree-n domain constants, so lower-level rows are intermediate
    quantities of the degree-n computation, not evaluations of
    lower-degree bases on their own shifted domains.
    """
    dom = domain(config, n)
    wl, wr = dom.weights(dom.admit(t, clamp))
    return _kernels.decasteljau_batch(np.eye(dom.degree + 1), wl, wr)


def basis_value_in_frame(
    config: ShiftedKnotConfig,
    frame_degree: int,
    degree: int,
    k: int,
    t: float,
    *,
    clamp: bool = False,
) -> float:
    """Evaluate a degree-``degree`` Bernstein form written with the domain
    constants of ``frame_degree``.

    The degree-raising and degree-lowering identities relate neighbouring
    degrees inside a single frame: the lower/higher-degree factors keep the
    frame's interval (and so its normalized pair) rather than moving to their
    own shifted domains. This helper makes those identities directly
    checkable.
    """
    dom = domain(config, frame_degree)
    degree = _check_int(degree, 0, MAX_DEGREE, "degree", ConstraintError)
    k = _check_int(k, 0, degree, "basis position", IndexError)
    wl, wr = dom.weights(dom.admit(t, clamp))
    high, low = _kernels.powers(wr, k), _kernels.powers(wl, degree - k)
    return float(high[-1] * binomial_row(degree)[k] * low[-1])


def basis_derivative(config: ShiftedKnotConfig, idx, t: float, *, clamp: bool = False) -> float:
    """First derivative of one basis function, one-sided at the endpoints."""
    n, k = idx
    dom = domain(config, n)
    n = dom.degree
    k = _check_int(k, 0, n, "basis position", IndexError)
    wl, wr = dom.weights(dom.admit(t, clamp))
    high, low = _kernels.powers(wr, k), _kernels.powers(wl, n - k)
    rising = k * high[k - 1] * low[n - k] if k > 0 else 0.0
    falling = (n - k) * high[k] * low[n - k - 1] if k < n else 0.0
    return float(binomial_row(n)[k] * (rising - falling) / dom.width)

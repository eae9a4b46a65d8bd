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
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConstraintError, DomainError

__all__ = [
    "MAX_DEGREE",
    "ShiftedKnotConfig",
    "DomainInterval",
    "BasisIndex",
    "make_config",
    "domain",
    "binomial_row",
    "basis_value",
    "basis_row",
    "basis_rows",
    "basis_row_by_recurrence",
    "basis_value_in_frame",
    "elevation_coefficients",
    "basis_derivative",
]

# Highest supported degree; higher degrees are rejected rather than silently
# degraded. binomial_row rounds the exact integers at any degree, so the cap
# is set by the float evaluation routes, not by the binomials.
MAX_DEGREE = 64

_EPS = float(np.finfo(np.float64).eps)


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
    """Closed parameter interval of one basis degree."""

    lo: float
    hi: float
    degree: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConstraintError(f"degenerate interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def _slack(self) -> float:
        # forgive a few ulps of roundoff from caller-side arithmetic
        return 32.0 * _EPS * max(1.0, abs(self.lo), abs(self.hi))

    def contains(self, t: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= t <= self.hi + slack

    def clamp(self, t: float) -> float:
        return min(max(float(t), self.lo), self.hi)

    def admit(self, t: float, clamp: bool = False) -> float:
        """Return ``t`` clipped into the interval, or raise ``DomainError``.

        Strict mode (the default) rejects anything farther outside than a
        few ulps; ``clamp=True`` pulls any finite value to the nearest end.
        """
        t = float(t)
        if not math.isfinite(t):
            raise DomainError(f"parameter must be finite, got {t!r}")
        if not clamp and not self.contains(t, self._slack()):
            raise DomainError(
                f"parameter {t!r} outside [{self.lo!r}, {self.hi!r}] for degree {self.degree}"
            )
        return self.clamp(t)

    def admit_array(self, ts, clamp: bool = False) -> np.ndarray:
        ts = np.ascontiguousarray(np.asarray(ts, dtype=np.float64))
        if ts.ndim != 1:
            raise ConstraintError("parameter samples must form a one-dimensional array")
        if not np.all(np.isfinite(ts)):
            raise DomainError("parameter samples must be finite")
        if not clamp:
            slack = self._slack()
            bad = (ts < self.lo - slack) | (ts > self.hi + slack)
            if bad.any():
                offender = float(ts[bad][0])
                raise DomainError(
                    f"parameter {offender!r} outside [{self.lo!r}, {self.hi!r}]"
                    f" for degree {self.degree}"
                )
        return np.clip(ts, self.lo, self.hi)

    def weights(self, t):
        """Normalized convex pair ``((hi - t) / width, (t - lo) / width)``.

        ``t`` is an admitted scalar or array. The shifted basis is the
        classical Bernstein basis in this pair; dividing by the width keeps
        it exactly ``(1, 0)`` and ``(0, 1)`` at the ends.
        """
        width = self.width
        return (self.hi - t) / width, (t - self.lo) / width

    def to_unit(self, t: float) -> float:
        """Affinely map interval points onto [0, 1]."""
        return (float(t) - self.lo) / self.width

    def from_unit(self, s: float) -> float:
        """Inverse of :meth:`to_unit`."""
        return self.lo + float(s) * self.width

    def grid(self, count: int) -> np.ndarray:
        """Uniform samples including both endpoints exactly."""
        if count < 2:
            raise ConstraintError(f"sample count must be at least 2, got {count}")
        return np.linspace(self.lo, self.hi, count)


def _check_int(value, lo: int, hi: int, what: str, error: type[Exception]) -> int:
    """Return ``value`` as an ``int`` in ``lo..hi``, or raise ``error``.

    Bools and floats are rejected even when they equal an integer.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        raise error(f"{what} {value} outside {lo}..{hi}")
    return value


def domain(config: ShiftedKnotConfig, n: int) -> DomainInterval:
    """Parameter interval carried by the degree-n basis of ``config``."""
    n = _check_int(n, 1, MAX_DEGREE, "degree", ConstraintError)
    denom = n + config.beta
    return DomainInterval(config.alpha / denom, (n + config.alpha) / denom, n)


@dataclass(frozen=True)
class BasisIndex:
    """Degree and position of one basis function, ``0 <= k <= n``."""

    n: int
    k: int

    def __post_init__(self):
        n = _check_int(self.n, 1, MAX_DEGREE, "degree", ConstraintError)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", _check_int(self.k, 0, n, "basis position", IndexError))


def _as_index(idx) -> BasisIndex:
    if isinstance(idx, BasisIndex):
        return idx
    return BasisIndex(*idx)


@functools.lru_cache(maxsize=None)
def binomial_row(n: int) -> np.ndarray:
    """Binomial coefficients C(n, 0..n), each the float nearest the exact
    integer, so the end entries are exactly 1 at every degree."""
    if n < 0:
        raise ConstraintError(f"binomial row needs a nonnegative degree, got {n}")
    row = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    row.setflags(write=False)
    return row


def basis_value(config: ShiftedKnotConfig, idx, t: float, *, clamp: bool = False) -> float:
    """Value of one shifted-knot Bernstein basis function.

    ``idx`` is a :class:`BasisIndex` or an ``(n, k)`` pair. ``t`` must lie
    in the degree-n domain unless ``clamp=True``.
    """
    idx = _as_index(idx)
    dom = domain(config, idx.n)
    wl, wr = dom.weights(dom.admit(t, clamp))
    return float(binomial_row(idx.n)[idx.k] * wr**idx.k * wl ** (idx.n - idx.k))


def basis_row(config: ShiftedKnotConfig, n: int, t: float, *, clamp: bool = False) -> np.ndarray:
    """All ``n + 1`` basis values at one parameter, in index order."""
    return basis_rows(config, n, np.array([float(t)]), clamp=clamp)[0]


def basis_rows(config: ShiftedKnotConfig, n: int, ts, *, clamp: bool = False) -> np.ndarray:
    """Basis values at many parameters, shape ``(len(ts), n + 1)``."""
    dom = domain(config, n)
    wl, wr = dom.weights(dom.admit_array(ts, clamp))
    return _kernels.basis_rows_batch(wl, wr, binomial_row(n))


def basis_row_by_recurrence(
    config: ShiftedKnotConfig, n: int, t: float, *, clamp: bool = False
) -> np.ndarray:
    """Basis row built by the degree-lowering recurrence instead of the
    closed form.

    The recurrence splits each binomial coefficient Pascal-style and keeps
    the degree-n domain constants at every level, which makes it the
    de Casteljau pyramid in disguise. Lower-level rows are intermediate
    quantities of the degree-n computation, not evaluations of lower-degree
    bases on their own shifted domains.
    """
    dom = domain(config, n)
    wl, wr = dom.weights(dom.admit(t, clamp))
    row = np.zeros(n + 1)
    row[0] = 1.0
    for m in range(1, n + 1):
        row[m] = wr * row[m - 1]
        for k in range(m - 1, 0, -1):
            row[k] = wr * row[k - 1] + wl * row[k]
        row[0] = wl * row[0]
    return row


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
    return float(binomial_row(degree)[k] * wr**k * wl ** (degree - k))


def elevation_coefficients(n: int, k: int) -> tuple[float, float]:
    """Convex pair ``(keep, shift)`` expressing a degree-n basis function in
    the degree-(n+1) basis of the same frame:

        value(n, k) = keep * value(n+1, k) + shift * value(n+1, k+1)

    with ``keep = (n + 1 - k) / (n + 1)`` and ``shift = (k + 1) / (n + 1)``.
    """
    idx = _as_index((n, k))
    return (idx.n + 1 - idx.k) / (idx.n + 1), (idx.k + 1) / (idx.n + 1)


def basis_derivative(config: ShiftedKnotConfig, idx, t: float, *, clamp: bool = False) -> float:
    """First derivative of one basis function, one-sided at the endpoints."""
    idx = _as_index(idx)
    dom = domain(config, idx.n)
    wl, wr = dom.weights(dom.admit(t, clamp))
    n, k = idx.n, idx.k
    rising = k * wr ** (k - 1) * wl ** (n - k) if k > 0 else 0.0
    falling = (n - k) * wr**k * wl ** (n - k - 1) if k < n else 0.0
    return float(binomial_row(n)[k] * (rising - falling) / dom.width)

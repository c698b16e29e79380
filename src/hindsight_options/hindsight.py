"""Hindsight-optimal rebalancing rules and the wealth they earn.

A rebalancing rule bets a fixed fraction b_i of wealth on asset i and keeps
the remainder in bonds, rebalancing continuously.  Over an observed history
[0, t] the realized wealth of a $1 deposit is

    V_t(b) = exp{(r - b' Sigma b / 2) t + sqrt(t) z' M b},

where M = diag(sigma), Sigma = M R M, and z collects the normalized log-price
deviations

    z_i = [log(S_i / S_i0) - (r - sigma_i^2 / 2) t] / (sigma_i sqrt(t)).

Everything here is drift-free: the state (S, t) is a sufficient statistic, so
none of these functions read ``spec.mu`` except :func:`kelly_rule`.  The
state reaches every closed form through z alone, and z is formed in one
kernel, which raises :class:`ValidationError` where z is not a finite
float64; :func:`z_score` returns that array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs

from .errors import ValidationError
from .market import MarketSpec

MODES = ("levered", "unlevered")
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RebalancingRule:
    """Wealth fractions bet per asset; unlevered rules are single-asset with b in [0, 1]."""

    b: np.ndarray
    mode: str = "levered"

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not np.isfinite(self.b).all():
            raise ValidationError("fractions must be finite")
        if self.mode == "unlevered":
            if self.b.shape != (1,):
                raise ValidationError("unlevered rules are defined for one asset only")
            if not 0.0 <= self.b[0] <= 1.0:
                raise ValidationError("unlevered fraction must lie in [0, 1]")


def _check_mode(spec: MarketSpec, mode: str) -> None:
    """Refuse a mode other than levered or unlevered, and unlevered mode beyond one asset."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "unlevered" and spec.n != 1:
        raise ValidationError("unlevered mode is defined for one asset")


def _as_prices(spec: MarketSpec, s, t: float) -> np.ndarray:
    """Prices of a state (S, t) checked for shape, positivity and finiteness."""
    if not 0 < t < math.inf:
        raise ValidationError("t must be positive and finite")
    return _prices(spec, s)


def _prices(spec: MarketSpec, s) -> np.ndarray:
    """Prices S checked for shape, positivity and finiteness, at any time."""
    try:
        s = np.atleast_1d(np.asarray(s, dtype=float))
    except (TypeError, ValueError):
        raise ValidationError("prices must be numbers") from None
    if s.shape != (spec.n,):
        raise ValidationError(f"expected {spec.n} prices, got shape {s.shape}")
    if not ((s > 0) & (s < math.inf)).all():
        raise ValidationError("prices must be strictly positive and finite")
    return s


def _unrepresentable(log_api: str) -> ValidationError:
    """The documented domain error of a result float64 cannot hold."""
    return ValidationError(f"result is not representable in float64; use {log_api}")


def _representable(value, log_api: str):
    """``value`` if every entry is finite, else the documented domain error."""
    if not np.isfinite(value).all():
        raise _unrepresentable(log_api)
    return value


def _exp(log_value: float, log_api: str, zero_ok: bool = False) -> float:
    """exp of a log, or the documented domain error where it overflows.

    A finite log whose exp underflows to 0.0 is an error too, unless ``zero_ok``.
    """
    try:
        value = math.exp(log_value)
    except OverflowError:
        raise _unrepresentable(log_api) from None
    if value == 0.0 and not zero_ok and log_value > -math.inf:
        raise _unrepresentable(log_api)
    return _representable(value, log_api)


def _log_ratio(s: np.ndarray, s0):
    """log(s / s0) of positive finite prices; log s - log s0 where the quotient under- or overflows.

    ``s`` is an array: a float quotient overflows to inf without setting a numpy flag.
    """
    try:
        with np.errstate(over="raise", under="raise"):
            return np.log(s / s0)
    except FloatingPointError:  # checking the flags is cheaper than checking every quotient
        with np.errstate(over="ignore"):
            q = s / s0
        normal = (q >= _TINY) & (q < math.inf)
        return np.where(normal, np.log(np.where(normal, q, 1.0)), np.log(s) - np.log(s0))


# Kernels: each closed form is written once, over checked prices s[..., n]
# and times t[...] > 0 that broadcast; every other caller goes through them.
def _z(spec: MarketSpec, s: np.ndarray, t) -> np.ndarray:
    """z_i = [log(S_i/S_i0) - (r - sigma_i^2/2) t] / (sigma_i sqrt(t)).

    The one place z is formed, and refused where it is not a finite float64:
    where the drift product or the division overflows, or sigma sqrt(t)
    underflows to 0.  Every other kernel reads a finite z.
    """
    t = np.asarray(t, dtype=float)[..., None]
    try:  # without a flag, log(S/S0) is np.log(S/S0): no quotient under- or overflowed
        with np.errstate(all="raise"):  # checking flags is cheaper than checking entries
            z = (np.log(s / spec.s0) - spec._log_drift * t) / (spec.sigma * np.sqrt(t))
    except FloatingPointError:
        with np.errstate(all="ignore"):  # a non-finite z is refused below
            z = (_log_ratio(s, spec.s0) - spec._log_drift * t) / (spec.sigma * np.sqrt(t))
    if not np.isfinite(z).all():
        raise ValidationError("z-score is not a finite float64 at this state: it overflows, "
                              "or sigma sqrt(t) underflows to 0")
    return z


def _trtrs(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Triangular solve per column: the LAPACK ``trtrs`` call ``solve_triangular`` makes.

    LAPACK rounds a lone column differently, so it is doubled.  The unit factor
    [[1.0]] of every one-asset spec solves to a copy of ``b`` without LAPACK.  A
    non-finite ``b`` gives a non-finite solution; a nonzero LAPACK ``info``, which
    a validated factor cannot give, goes through ``solve_triangular`` for its error.
    """
    if a.shape == (1, 1) and a[0, 0] == 1.0:
        return b / a[0, 0]
    rhs = np.repeat(b, 2, axis=1) if b.shape[1] == 1 else b
    # trtrs reads a Fortran-ordered factor; a C-ordered one is read as its transpose
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, rhs, lower=lower)
    else:
        x, info = dtrtrs(a.T, rhs, lower=not lower, trans=1)
    if info:
        return solve_triangular(a, rhs, lower=lower)
    return x[:, :b.shape[1]]


def _whiten(spec: MarketSpec, z: np.ndarray) -> np.ndarray:
    """w = L^{-1} z as columns of shape (n, points), points in C order of z[..., n].

    A w that overflows from a finite z is not finite: the callers check what they read.
    """
    return _trtrs(spec.lower, z.reshape(-1, spec.n).T, lower=True)


def _whitened(spec: MarketSpec, s: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The state (z, w = L^{-1} z) that log C and b(S, t) both read."""
    z = _z(spec, s, t)
    return z, _whiten(spec, z)


def _log_floor(n: int, t, T: float, rate: float):
    """log of the levered floor (T/t)^{n/2} e^{rt}: the price at z = 0, the cost of universality."""
    return 0.5 * n * np.log(T / t) + rate * t


def _log_levered_of(spec: MarketSpec, z: np.ndarray, w: np.ndarray, t, T: float) -> np.ndarray:
    """log C(S, t) = log floor + z' R^{-1} z / 2, from :func:`_whitened`.

    Refused where z' R^{-1} z = |w|^2, and so log C, is not a finite float64.
    """
    with np.errstate(over="ignore"):  # an overflow is refused just below
        quad = np.sum(w * w, axis=0)
    if not np.isfinite(quad).all():
        raise ValidationError("z' R^{-1} z is not a finite float64 at this state; "
                              "not even log_price_levered can represent it")
    return _log_floor(spec.n, t, T, spec.rate) + 0.5 * quad.reshape(z.shape[:-1])


def _fractions_of(spec: MarketSpec, z: np.ndarray, w: np.ndarray, t) -> np.ndarray:
    """Levered best rule b(S, t) = M^{-1} R^{-1} z / sqrt(t), from :func:`_whitened`."""
    y = _trtrs(spec.lower.T, w, lower=False)
    return (y / spec.sigma[:, None]).T.reshape(z.shape) / np.sqrt(t)[..., None]


def _log_unlevered_intrinsic(spec: MarketSpec, s: np.ndarray, z: np.ndarray, t) -> np.ndarray:
    """log V_t* of the rule clamped to [0, 1], from checked s[..., 1] and its z[..., 1].

    Cash rt for z <= 0, hold log(S/S0) for z >= sigma sqrt(t), rt + z^2/2 between.
    """
    z = z[..., 0]
    rt = spec.rate * t
    cap = spec.sigma[0] * np.sqrt(t)
    inner = np.minimum(abs(z), cap)  # z where it is used; |z| capped so no z^2 overflows
    return np.where(z <= 0.0, rt,
                    np.where(z >= cap, _log_ratio(s[..., 0], spec.s0[0]), rt + 0.5 * inner * inner))


def _log_levered(spec: MarketSpec, s: np.ndarray, t, T: float) -> np.ndarray:
    """log C(S, t) of checked states."""
    return _log_levered_of(spec, *_whitened(spec, s, t), t, T)


def _fractions(spec: MarketSpec, s: np.ndarray, t) -> np.ndarray:
    """b(S, t) of checked states; unlike log C it can be finite where z' R^{-1} z is not."""
    return _fractions_of(spec, *_whitened(spec, s, t), t)


def _finite_z(z) -> np.ndarray:
    """A caller's z as a float array, refused unless every entry is finite."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValidationError("z must be finite")
    return z


def corr_solve(spec: MarketSpec, z: np.ndarray) -> np.ndarray:
    """Solve corr @ x = z (shape (n,)) by two triangular solves with ``spec.lower``."""
    return _trtrs(spec.lower.T, _whiten(spec, _finite_z(z)), lower=False)[:, 0]


def corr_quad(spec: MarketSpec, z: np.ndarray) -> float:
    """z' corr^{-1} z = |L^{-1} z|^2 for z of shape (n,), summed as the kernels sum it."""
    w = _whiten(spec, _finite_z(z))
    return float(np.sum(w * w))


def z_score(spec: MarketSpec, s, t: float) -> np.ndarray:
    """Normalized log-price deviations z[n]; a unit normal under the martingale measure.

    z_i = [log(S_i/S_i0) - (rate - sigma_i^2/2) t] / (sigma_i sqrt(t))
    """
    return _z(spec, _as_prices(spec, s, t), t)


def best_rule(spec: MarketSpec, s, t: float, mode: str = "levered") -> RebalancingRule:
    """Best rebalancing rule in hindsight over [0, t].

    Levered: b = M^{-1} R^{-1} z / sqrt(t), the argmax of the concave
    quadratic log V_t(b).  Unlevered (one asset): the levered scalar clamped
    to [0, 1].
    """
    _check_mode(spec, mode)
    with np.errstate(over="ignore"):  # a levered rule that overflows is refused just below
        b = _fractions(spec, _as_prices(spec, s, t), t)
    if mode == "levered":
        return RebalancingRule(b=_representable(b, "log_price_levered"), mode="levered")
    return RebalancingRule(b=[min(max(b[0], 0.0), 1.0)], mode="unlevered")


def wealth_of_rule(spec: MarketSpec, s, t: float, rule: RebalancingRule) -> float:
    """Realized wealth V_t(b) of a $1 deposit, computed from (S, t) alone.

    The log wealth is rt + u' (z - R u / 2) with the exposure u = sqrt(t) M b
    formed first, so that b' Sigma b overflowing before it meets a small t
    loses nothing, and a u that overflows gives a log wealth of -inf rather
    than -inf + inf.  Where u holds inf and -inf, so that R u is NaN, the
    excess is m (v' z - m v' R v / 2) with v = (sigma / |sigma|_inf) (b / |b|_inf)
    and m = sqrt(t) |sigma|_inf |b|_inf: |v_i| <= 1 and v' R v > 0 form no NaN.
    A wealth too small for float64 is returned as 0.0.
    """
    z = z_score(spec, s, t)
    b = rule.b
    if b.shape != (spec.n,):
        raise ValidationError(f"rule has {b.shape[0]} fractions for {spec.n} assets")
    with np.errstate(over="ignore", invalid="ignore"):  # _exp refuses a NaN or +inf log wealth
        u = math.sqrt(t) * spec.sigma * b
        excess = float(u @ (z - 0.5 * (spec.corr @ u)))
        if math.isnan(excess):  # b != 0 here, since u = 0 gives 0.0
            sigma_max, b_max = float(spec.sigma.max()), float(abs(b).max())
            v = (spec.sigma / sigma_max) * (b / b_max)
            m = math.sqrt(t) * sigma_max * b_max
            excess = m * (float(v @ z) - 0.5 * m * float(v @ spec.corr @ v))
    return _exp(spec.rate * t + excess, "the log wealth rt + u' (z - R u / 2), u = sqrt(t) M b",
                zero_ok=True)


def intrinsic_value(spec: MarketSpec, s, t: float, mode: str = "levered") -> float:
    """Hindsight-optimal wealth V_t* accrued over [0, t] (the exercise value).

    Levered: exp(rt + z' R^{-1} z / 2).  Unlevered (one asset) is piecewise in
    z: all-cash e^{rt} for z <= 0, the levered expression for
    0 <= z <= sigma sqrt(t), and buy-and-hold S_t/S_0 for z >= sigma sqrt(t).
    The branches agree at both boundaries.  A V_t* that overflows float64 or
    underflows to 0 raises :class:`ValidationError`; use :func:`log_intrinsic_value`.
    """
    return _exp(log_intrinsic_value(spec, s, t, mode), "log_intrinsic_value")


def log_intrinsic_value(spec: MarketSpec, s, t: float, mode: str = "levered") -> float:
    """log V_t*; preferred for long horizons where V_t* overflows."""
    _check_mode(spec, mode)
    s = _as_prices(spec, s, t)
    if mode == "levered":
        return float(_log_levered(spec, s, t, t))  # log C at expiry T = t
    return float(_log_unlevered_intrinsic(spec, s, _z(spec, s, t), t))


def kelly_rule(spec: MarketSpec) -> tuple[RebalancingRule, float]:
    """Growth-optimal constant rule b* = Sigma^{-1}(mu - r 1) and its rate.

    Returns the rule together with the optimum asymptotic growth rate
    gamma* = r + (mu - r 1)' Sigma^{-1} (mu - r 1) / 2.
    """
    with np.errstate(over="ignore"):  # an overflow is refused just below
        excess_per_vol = (spec.mu - spec.rate) / spec.sigma
        if np.isfinite(excess_per_vol).all():
            y = corr_solve(spec, excess_per_vol)
            b = y / spec.sigma
            growth = spec.rate + 0.5 * float(excess_per_vol @ y)
            if np.isfinite(b).all() and math.isfinite(growth):
                return RebalancingRule(b=b, mode="levered"), growth
    raise ValidationError("the Kelly rule is not representable in float64")

"""Hindsight-optimal rebalancing rules and the wealth they earn.

A rebalancing rule bets a fixed fraction b_i of wealth on asset i and keeps
the remainder in bonds, rebalancing continuously.  Over an observed history
[0, t] the realized wealth of a $1 deposit is

    V_t(b) = exp{(r - b' Sigma b / 2) t + sqrt(t) z' M b},

where M = diag(sigma), Sigma = M R M, and z collects the normalized log-price
deviations

    z_i = [log(S_i / S_i0) - (r - sigma_i^2 / 2) t] / (sigma_i sqrt(t)).

Everything here is drift-free: the state (S, t) is a sufficient statistic, so
none of these functions read ``spec.mu`` except :func:`kelly_rule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ValidationError
from .market import MarketSpec, covariance

MODES = ("levered", "unlevered")


@dataclass(frozen=True)
class HindsightState:
    """Sufficient statistic for hindsight optimization: z-scores and elapsed time."""

    z: np.ndarray
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, dtype=float)))
        if self.t <= 0:
            raise ValidationError("z-scores are undefined at t <= 0")


@dataclass(frozen=True)
class RebalancingRule:
    """Wealth fractions bet per asset; unlevered rules are single-asset with b in [0, 1]."""

    b: np.ndarray
    mode: str = "levered"

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode == "unlevered":
            if self.b.shape != (1,):
                raise ValidationError("unlevered rules are defined for one asset only")
            if not 0.0 <= self.b[0] <= 1.0:
                raise ValidationError("unlevered fraction must lie in [0, 1]")


def _as_prices(spec: MarketSpec, s, t: float) -> np.ndarray:
    """Prices of a state (S, t) checked for shape, positivity and finiteness."""
    if not 0 < t < math.inf:
        raise ValidationError("t must be positive and finite")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (spec.n,):
        raise ValidationError(f"expected {spec.n} prices, got shape {s.shape}")
    if not np.all((s > 0) & (s < math.inf)):
        raise ValidationError("prices must be strictly positive and finite")
    return s


def _representable(value, log_api: str):
    """``value`` if every entry is finite, else the documented domain error."""
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"result is not representable in float64; use {log_api}")
    return value


def _exp(log_value: float, log_api: str) -> float:
    try:
        return _representable(math.exp(log_value), log_api)
    except OverflowError:
        return _representable(math.inf, log_api)


# Kernels: each closed form is written once, over checked prices s[..., n]
# and times t[...] > 0 that broadcast; every other caller goes through them.
def _z(spec: MarketSpec, s: np.ndarray, t) -> np.ndarray:
    """z_i = [log(S_i/S_i0) - (r - sigma_i^2/2) t] / (sigma_i sqrt(t))."""
    t = np.asarray(t, dtype=float)[..., None]
    return ((np.log(s / spec.s0) - (spec.rate - 0.5 * spec.sigma**2) * t)
            / (spec.sigma * np.sqrt(t)))


def _solve(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Triangular solve per column; LAPACK rounds a lone column differently, so it is doubled."""
    if b.shape[1] == 1:
        return solve_triangular(a, np.repeat(b, 2, axis=1), lower=lower)[:, :1]
    return solve_triangular(a, b, lower=lower)


def _whiten(spec: MarketSpec, z: np.ndarray) -> np.ndarray:
    """w = L^{-1} z as columns of shape (n, points), points in C order of z[..., n]."""
    return _solve(spec.lower, z.reshape(-1, spec.n).T, lower=True)


def _log_levered(spec: MarketSpec, s: np.ndarray, t, T: float) -> np.ndarray:
    """log C(S, t) = (n/2) log(T/t) + rt + z' R^{-1} z / 2."""
    z = _z(spec, s, t)
    w = _whiten(spec, z)
    quad = np.sum(w * w, axis=0).reshape(z.shape[:-1])
    return 0.5 * spec.n * np.log(T / t) + spec.rate * t + 0.5 * quad


def _fractions(spec: MarketSpec, s: np.ndarray, t) -> np.ndarray:
    """Levered best rule b(S, t) = M^{-1} R^{-1} z / sqrt(t)."""
    z = _z(spec, s, t)
    y = _solve(spec.lower.T, _whiten(spec, z), lower=False)
    return (y / spec.sigma[:, None]).T.reshape(z.shape) / np.sqrt(t)[..., None]


def corr_solve(spec: MarketSpec, z: np.ndarray) -> np.ndarray:
    """Solve corr @ x = z (shape (n,)) by two triangular solves with ``spec.lower``."""
    return _solve(spec.lower.T, _whiten(spec, np.asarray(z, dtype=float)), lower=False)[:, 0]


def corr_quad(spec: MarketSpec, z: np.ndarray) -> float:
    """z' corr^{-1} z = |L^{-1} z|^2 for z of shape (n,), summed as the kernels sum it."""
    w = _whiten(spec, np.asarray(z, dtype=float))
    return float(np.sum(w * w))


def z_score(spec: MarketSpec, s, t: float) -> HindsightState:
    """Normalized log-price deviation; a unit normal under the martingale measure.

    z_i = [log(S_i/S_i0) - (rate - sigma_i^2/2) t] / (sigma_i sqrt(t))
    """
    return HindsightState(z=_z(spec, _as_prices(spec, s, t), t), t=float(t))


def best_rule(spec: MarketSpec, s, t: float, mode: str = "levered") -> RebalancingRule:
    """Best rebalancing rule in hindsight over [0, t].

    Levered: b = M^{-1} R^{-1} z / sqrt(t), the argmax of the concave
    quadratic log V_t(b).  Unlevered (one asset): the levered scalar clamped
    to [0, 1].
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    b = _fractions(spec, _as_prices(spec, s, t), t)
    if mode == "levered":
        return RebalancingRule(b=b, mode="levered")
    if spec.n != 1:
        raise ValidationError("unlevered hindsight optimization is defined for one asset")
    return RebalancingRule(b=[min(max(b[0], 0.0), 1.0)], mode="unlevered")


def wealth_of_rule(spec: MarketSpec, s, t: float, rule: RebalancingRule) -> float:
    """Realized wealth V_t(b) of a $1 deposit, computed from (S, t) alone."""
    state = z_score(spec, s, t)
    b = rule.b
    if b.shape != (spec.n,):
        raise ValidationError(f"rule has {b.shape[0]} fractions for {spec.n} assets")
    quad = float(b @ covariance(spec) @ b)
    return _exp((spec.rate - 0.5 * quad) * t + math.sqrt(t) * float(state.z @ (spec.sigma * b)),
                "the log wealth (r - b' Sigma b / 2) t + sqrt(t) z' M b")


def intrinsic_value(spec: MarketSpec, s, t: float, mode: str = "levered") -> float:
    """Hindsight-optimal wealth V_t* accrued over [0, t] (the exercise value).

    Levered: exp(rt + z' R^{-1} z / 2).  Unlevered (one asset) is piecewise in
    z: all-cash e^{rt} for z <= 0, the levered expression for
    0 <= z <= sigma sqrt(t), and buy-and-hold S_t/S_0 for z >= sigma sqrt(t).
    The branches agree at both boundaries.  A V_t* not representable in
    float64 raises :class:`ValidationError`; use :func:`log_intrinsic_value`.
    """
    return _exp(log_intrinsic_value(spec, s, t, mode), "log_intrinsic_value")


def log_intrinsic_value(spec: MarketSpec, s, t: float, mode: str = "levered") -> float:
    """log V_t*; preferred for long horizons where V_t* overflows."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    s = _as_prices(spec, s, t)
    if mode == "levered":
        return float(_log_levered(spec, s, t, t))  # log C at expiry T = t
    if spec.n != 1:
        raise ValidationError("unlevered hindsight optimization is defined for one asset")
    z = float(_z(spec, s, t)[0])
    if z <= 0.0:
        return spec.rate * t
    if z >= spec.sigma[0] * math.sqrt(t):
        return float(np.log(s[0] / spec.s0[0]))
    return spec.rate * t + 0.5 * z * z


def kelly_rule(spec: MarketSpec) -> tuple[RebalancingRule, float]:
    """Growth-optimal constant rule b* = Sigma^{-1}(mu - r 1) and its rate.

    Returns the rule together with the optimum asymptotic growth rate
    gamma* = r + (mu - r 1)' Sigma^{-1} (mu - r 1) / 2.
    """
    excess_per_vol = (spec.mu - spec.rate) / spec.sigma
    y = corr_solve(spec, excess_per_vol)
    b = y / spec.sigma
    growth = spec.rate + 0.5 * float(excess_per_vol @ y)
    return RebalancingRule(b=b, mode="levered"), growth

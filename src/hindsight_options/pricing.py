"""Closed-form prices and Greeks of the hindsight allocation option.

The option pays the hindsight-optimal wealth V_T* at expiry T.  For levered
hindsight optimization over n correlated assets the no-arbitrage price in
state (S, t) is

    C(S, t) = (T/t)^{n/2} exp(rt + z' R^{-1} z / 2) = (T/t)^{n/2} V_t*,

so the price exceeds intrinsic value by the deterministic universality factor
(T/t)^{n/2} and the option is never rationally exercised early.  For one
asset with the hindsight optimization restricted to b in [0, 1], the price is
a sum of three cumulative-normal terms, one per clamp regime of the terminal
best rule.

Greeks for the one-asset levered price (w = sigma sqrt(t)):

    delta = C z / (S w)
    gamma = C (z^2 - w z + 1) / (S w)^2
    theta = C [r - (1 + z^2)/(2t) - z (r - sigma^2/2)/w]
    vega  = C z (w - z) / sigma
    rho   = (1 - z/w) C t

All five satisfy the Black-Scholes identity
sigma^2 S^2 gamma / 2 + r S delta + theta = r C exactly.  Quadratic forms are
assembled in log space and exponentiated last so that deep-in-hindsight
states (z' R^{-1} z / 2 of several hundred) do not overflow intermediate
products.  A price, term or Greek that is still not representable in
float64 raises :class:`ValidationError`; :func:`log_price_levered` stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import IrrationalPriceError, ValidationError
from .hindsight import (_as_prices, _exp, _fractions, _log_levered, _representable, _z,
                        intrinsic_value, log_intrinsic_value)
from .market import MarketSpec

_SQRT2 = math.sqrt(2.0)


def norm_cdf(x):
    """Cumulative standard normal via erfc; accurate in both tails."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class Quote:
    """A price together with its intrinsic value and their ratio."""

    price: float
    intrinsic: float
    universality_factor: float
    mode: str
    t: float
    T: float

    def as_record(self) -> dict:
        return {"price": self.price, "intrinsic": self.intrinsic,
                "factor": self.universality_factor, "mode": self.mode,
                "t": self.t, "T": self.T}


@dataclass(frozen=True)
class GreeksReport:
    """First-order sensitivities of the levered price (one asset)."""

    delta: float
    gamma: float
    theta: float
    vega: float
    rho: float

    def as_record(self) -> dict:
        return {"delta": self.delta, "gamma": self.gamma, "theta": self.theta,
                "vega": self.vega, "rho": self.rho}


@dataclass(frozen=True)
class ImpliedVolRoots:
    """Zero, one, or two positive volatilities consistent with an observed price."""

    roots: tuple[float, ...]


def _check_horizon(t: float, T: float, *, strict_end: bool = False) -> None:
    if not (0 < t < math.inf and T < math.inf):
        raise ValidationError("need finite T and t > 0 (the price diverges as t -> 0+)")
    if not math.isfinite(T / t):
        raise ValidationError("T / t overflows float64; need a finite ratio")
    if strict_end:
        if t >= T:
            raise ValidationError("need t < T")
    elif t > T:
        raise ValidationError("need t <= T")


def min_rational_price(n: int, t: float, T: float, rate: float) -> float:
    """Lowest rational levered price, (T/t)^{n/2} e^{rt}, attained at z = 0."""
    _check_horizon(t, T)
    return _exp(0.5 * n * math.log(T / t) + rate * t, "log_price_levered")


def log_price_levered(spec: MarketSpec, s, t: float, T: float) -> float:
    """log of the levered price; safe for states where the price overflows."""
    _check_horizon(t, T)
    return float(_log_levered(spec, _as_prices(spec, s, t), t, T))


def price_levered(spec: MarketSpec, s, t: float, T: float) -> Quote:
    """Levered price (T/t)^{n/2} V_t*; equals intrinsic value at t = T."""
    price = _exp(log_price_levered(spec, s, t, T), "log_price_levered")
    try:
        factor = (T / t) ** (0.5 * spec.n)
    except OverflowError:
        factor = math.inf
    _representable(factor, "log_price_levered")
    return Quote(price=price, intrinsic=price / factor,
                 universality_factor=factor, mode="levered", t=float(t), T=float(T))


def _unlevered_terms(spec: MarketSpec, s: np.ndarray, t, T: float):
    """Kernel of :func:`unlevered_terms` for checked s[..., 1], 0 < t[...] < T.

    The middle term is inf or NaN where the levered price overflows.
    """
    sigma = float(spec.sigma[0])
    z = _z(spec, s, t)[..., 0]
    a = -z * np.sqrt(t / (T - t))
    b = a + sigma * T / np.sqrt(T - t)
    ratio = np.sqrt(T / t)
    term1 = np.exp(spec.rate * t) * norm_cdf(a)
    term2 = np.exp(_log_levered(spec, s, t, T)) * (
        norm_cdf(a * ratio + sigma * np.sqrt(t * T / (T - t))) - norm_cdf(a * ratio))
    term3 = (s[..., 0] / spec.s0[0]) * norm_cdf(sigma * np.sqrt(T - t) - b)
    return term1, term2, term3


def unlevered_terms(spec: MarketSpec, s, t: float, T: float) -> tuple[float, float, float]:
    """The three nonnegative pieces of the unlevered price (one asset, t < T).

    The pieces correspond to the terminal best rule being clamped at 0,
    interior, or clamped at 1; each solves the Black-Scholes equation on its
    own.
    """
    if spec.n != 1:
        raise ValidationError("unlevered pricing is defined for one asset")
    _check_horizon(t, T, strict_end=True)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _unlevered_terms(spec, _as_prices(spec, s, t), t, T)
    return tuple(_representable([float(term) for term in terms], "log_price_levered"))


def price_unlevered(spec: MarketSpec, s, t: float, T: float) -> Quote:
    """Price under hindsight optimization restricted to b in [0, 1] (one asset).

    At t = T the option has expired and the quote is the unlevered intrinsic
    value; t > T is rejected.
    """
    intrinsic = intrinsic_value(spec, s, t, "unlevered")
    if t == T:
        return Quote(price=intrinsic, intrinsic=intrinsic, universality_factor=1.0,
                     mode="unlevered", t=float(t), T=float(T))
    price = sum(unlevered_terms(spec, s, t, T))
    return Quote(price=price, intrinsic=intrinsic,
                 universality_factor=price / intrinsic,
                 mode="unlevered", t=float(t), T=float(T))


def price_time0_unlevered(sigma: float, T: float) -> float:
    """Time-0 unlevered price, 1 + sigma sqrt(T / (2 pi)); rate-free."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    if T < 0:
        raise ValidationError("T must be nonnegative")
    return 1.0 + sigma * math.sqrt(T / (2.0 * math.pi))


def greeks(spec: MarketSpec, s, t: float, T: float) -> GreeksReport:
    """Analytic sensitivities of the levered price (one asset, 0 < t < T)."""
    if spec.n != 1:
        raise ValidationError("greeks are defined for one asset")
    _check_horizon(t, T, strict_end=True)
    s = _as_prices(spec, s, t)
    s_val = float(s[0])
    sigma = float(spec.sigma[0])
    r = spec.rate
    z = float(_z(spec, s, t)[0])
    w = sigma * math.sqrt(t)
    c = _exp(float(_log_levered(spec, s, t, T)), "log_price_levered")
    delta = c * z / (s_val * w)
    gamma = c * (z * z - w * z + 1.0) / (s_val * s_val * w * w)
    theta = c * (r - (1.0 + z * z) / (2.0 * t) - z * (r - 0.5 * sigma * sigma) / w)
    vega = c * z * (w - z) / sigma
    rho = (1.0 - z / w) * c * t
    _representable([delta, gamma, theta, vega, rho], "log_price_levered")
    return GreeksReport(delta=delta, gamma=gamma, theta=theta, vega=vega, rho=rho)


def multi_delta(spec: MarketSpec, s, t: float, T: float) -> np.ndarray:
    """Replicating share holdings per asset: delta_i = C b_i(S, t) / S_i."""
    _check_horizon(t, T)
    s = _as_prices(spec, s, t)
    c = _exp(float(_log_levered(spec, s, t, T)), "log_price_levered")
    return _representable(c * _fractions(spec, s, t) / s, "log_price_levered")


def implied_vols(observed_price: float, s: float, s0: float, t: float, T: float,
                 rate: float) -> ImpliedVolRoots:
    """All volatilities that rationalize an observed levered price (one asset).

    Writing x = sigma^2, K = 2(log C - rt) + log(t/T) and Lp = log(S/S0) - rt,
    consistency of the observed price with the z-score definition requires

        (t^2/4) x^2 + t (Lp - K) x + Lp^2 = 0.

    Prices below the minimum rational price (T/t)^{1/2} e^{rt} raise
    :class:`IrrationalPriceError`.  Prices at or above that floor but outside
    the range attainable by any positive volatility (possible when
    Lp > 0 and K < 2 Lp) return no roots.  Every returned root is validated
    by round-trip repricing.
    """
    _check_horizon(t, T)
    if s <= 0 or s0 <= 0:
        raise ValidationError("prices must be strictly positive")
    floor = min_rational_price(1, t, T, rate)
    if observed_price < floor * (1.0 - 1e-12):
        raise IrrationalPriceError(
            f"observed price {observed_price!r} is below the minimum rational "
            f"price sqrt(T/t) * exp(r*t) = {floor!r}"
        )
    log_move = math.log(s / s0) - rate * t
    k = max(2.0 * (math.log(observed_price) - rate * t) + math.log(t / T), 0.0)
    qa = 0.25 * t * t
    qb = t * (log_move - k)
    qc = log_move * log_move
    disc = qb * qb - 4.0 * qa * qc  # = t^2 K (K - 2 Lp)
    if disc < 0.0:
        return ImpliedVolRoots(roots=())
    # Stable quadratic roots: avoid subtracting nearly equal quantities.
    if qb >= 0.0:
        q = -0.5 * (qb + math.sqrt(disc))
    else:
        q = -0.5 * (qb - math.sqrt(disc))
    candidates = []
    if q != 0.0:
        candidates.append(q / qa)
        candidates.append(qc / q)
    roots = []
    for x in sorted(set(candidates)):
        if x <= 0.0 or not math.isfinite(x):
            continue
        sigma = math.sqrt(x)
        if roots and abs(sigma - roots[-1]) <= 1e-6 * sigma:
            continue  # double root (float noise in K splits it at ~1e-8): report once
        repriced = math.exp(
            0.5 * math.log(T / t) + rate * t
            + 0.5 * ((math.log(s / s0) - (rate - 0.5 * x) * t) / (sigma * math.sqrt(t))) ** 2
        )
        if abs(repriced - observed_price) <= 1e-9 * observed_price:
            roots.append(sigma)
    return ImpliedVolRoots(roots=tuple(roots))


def excess_growth_bound(spec: MarketSpec, s, t: float, T: float) -> float:
    """Deterministic bound on the hindsight-optimum growth in excess of the hedge.

    Equals log C(S, t) / (T - t) = {rt + z' R^{-1} z / 2 + n log(T/t) / 2} / (T - t)
    and decreases to 0 as T grows with the state fixed.
    """
    _check_horizon(t, T, strict_end=True)
    return log_price_levered(spec, s, t, T) / (T - t)


def time0_unlevered_excess_growth(sigma: float, T: float) -> float:
    """Regret rate of a time-0 unlevered buyer: log(1 + sigma sqrt(T/(2 pi))) / T."""
    if T <= 0:
        raise ValidationError("T must be positive")
    return math.log(price_time0_unlevered(sigma, T)) / T


__all__ = [
    "Quote", "GreeksReport", "ImpliedVolRoots",
    "norm_cdf", "min_rational_price",
    "log_price_levered", "price_levered",
    "price_unlevered", "unlevered_terms", "price_time0_unlevered",
    "greeks", "multi_delta", "implied_vols",
    "excess_growth_bound", "time0_unlevered_excess_growth",
    "log_intrinsic_value",
]

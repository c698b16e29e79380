"""Closed-form prices and Greeks of the hindsight allocation option.

The option pays the hindsight-optimal wealth V_T* at expiry T.  For levered
hindsight optimization over n correlated assets the no-arbitrage price in
state (S, t) is

    C(S, t) = (T/t)^{n/2} exp(rt + z' R^{-1} z / 2) = (T/t)^{n/2} V_t*,

so the price exceeds intrinsic value by the deterministic universality factor
(T/t)^{n/2} and the option is never rationally exercised early.  For one
asset with the hindsight optimization restricted to b in [0, 1], the price is
a sum of three cumulative-normal terms, one per clamp regime of the terminal
best rule.  With tau = T - t, a = -z sqrt(t/tau), x1 = -z sqrt(T/tau) and
x2 = x1 + sigma sqrt(tT/tau),

    P(S, t) = e^{rt} Phi(a) + C(S, t) [Phi(x2) - Phi(x1)]
              + (S/S0) Phi(-a - sigma t / sqrt(tau)).

Each term is computed as a log (log Phi by scipy's ``log_ndtr``, the
difference of cdfs on the upper tails when x1 >= 0, so it does not cancel)
and the three are combined by log-sum-exp; ``log_ndtr`` is read through
``hindsight._scipy``, which imports scipy on the first unlevered quote of a
process, so the levered quotes never load it.  Deep out-of-the-money quotes
keep full relative accuracy, and :func:`log_price_unlevered` stays finite
where the price overflows.  The unlevered hedge fraction S (dP/dS) / P is
analytic and built from the same pieces.

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
products.  A price or Greek that overflows float64, or a price that
underflows to 0, raises :class:`ValidationError`; :func:`log_price_levered`
and :func:`log_price_unlevered` stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IrrationalPriceError, ValidationError
from .hindsight import (_QUAD_OVERFLOW, _all_finite, _check_mode, _exp, _fractions_of, _log_floor,
                        _log_levered, _log_levered_of, _log_ratio, _log_unlevered_intrinsic,
                        _masked, _prices, _representable, _scipy, _unrepresentable, _where,
                        _whitened, _z)
from .market import MarketSpec, _integer, _real

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def _check_horizon(t, T, *, strict_end: bool = False) -> tuple[float, float]:
    """t and T as floats, checked: 0 < t <= T (t < T with ``strict_end``), T / t finite."""
    t, T = _real(t, "t"), _real(T, "T")
    if not (0 < t < math.inf and T < math.inf):
        raise ValidationError("need finite T and t > 0 (the price diverges as t -> 0+)")
    if not math.isfinite(T / t):
        raise ValidationError("T / t overflows float64; need a finite ratio")
    if strict_end:
        if t >= T:
            raise ValidationError("need t < T")
    elif t > T:
        raise ValidationError("need t <= T")
    return t, T


def min_rational_price(n: int, t: float, T: float, rate: float) -> float:
    """Lowest rational levered price, (T/t)^{n/2} e^{rt}, attained at z = 0."""
    n = _integer(n, "n (asset count)")
    if n < 1:
        raise ValidationError("asset count must be >= 1")
    t, T = _check_horizon(t, T)
    return _exp(_log_floor(n, t, T, _real(rate, "rate")), "log_price_levered")


def log_price_levered(spec: MarketSpec, s, t: float, T: float) -> float:
    """log of the levered price; safe for states where the price overflows."""
    t, T = _check_horizon(t, T)
    return float(_log_levered(spec, _prices(spec, s), t, T))


def price_levered(spec: MarketSpec, s, t: float, T: float) -> Quote:
    """Levered price (T/t)^{n/2} V_t*; equals intrinsic value at t = T."""
    t, T = _check_horizon(t, T)
    price = _exp(float(_log_levered(spec, _prices(spec, s), t, T)), "log_price_levered")
    try:
        factor = (T / t) ** (0.5 * spec.n)
    except OverflowError:
        raise _unrepresentable("log_price_levered") from None
    intrinsic = price / factor
    if intrinsic == 0.0:  # V_t* underflowed although the price did not
        raise _unrepresentable("log_price_levered")
    return Quote(price=price, intrinsic=intrinsic,
                 universality_factor=factor, mode="levered", t=t, T=T)


def _log_unlevered_terms(spec: MarketSpec, s: np.ndarray, t, T: float):
    """Logs of the cash, interior and hold terms for checked s[..., 1], 0 < t[...] < T.

    Returns the three logs, log P = their log-sum-exp, and the pieces
    (z[..., 1], log C, x1, x2) that :func:`_unlevered_fractions` and
    :func:`price_unlevered` read.  One state (s of shape (1,), a float t) is
    computed on numpy scalars.  Where Phi(x2) - Phi(x1) underflows, the
    interior term is 0 whatever C is, and a log C that overflows there is +inf.
    """
    log_ndtr = _scipy("special").log_ndtr
    sigma = float(spec.sigma[0])
    tau = T - t
    state = _whitened(spec, s, t)
    z = state[0][..., 0][()]
    a = -z * np.sqrt(t / tau)
    x1 = -z * np.sqrt(T / tau)
    x2 = x1 + sigma * np.sqrt(t * T / tau)
    # Phi(x2) - Phi(x1) = Phi(hi) - Phi(lo) with lo < 0: never two cdfs near 1.
    upper = x1 >= 0.0
    log_hi = log_ndtr(_where(upper, -x1, x2))
    # Where Phi(hi) underflows so does Phi(lo) <= Phi(hi): d is -inf, not -inf - -inf.
    live = log_hi > -np.inf
    d = _masked(np.subtract, live, log_ndtr(_where(upper, -x2, x1)), log_hi)
    # log(1 - e^d) needs only absolute accuracy here, which log(-expm1(d)) has
    # for every d < 0.  Where d rounds to 0 the difference is below rounding
    # and the term is taken as 0.
    log_gap = _masked(np.log, d < 0.0, -np.expm1(d))
    log_c = _log_levered_of(spec, *state, t, T, needed=live)
    log_terms = (spec.rate * t + log_ndtr(a),
                 _masked(np.add, live, log_c, log_hi) + log_gap,
                 _log_ratio(s[..., 0], spec.s0[0]) + log_ndtr(-a - sigma * t / np.sqrt(tau)))
    log_p = np.logaddexp(np.logaddexp(log_terms[0], log_terms[1]), log_terms[2])
    return log_terms, log_p, (state[0], log_c, x1, x2)


def _unlevered_fractions(spec: MarketSpec, s: np.ndarray, t, T: float) -> np.ndarray:
    """Hedge fraction S (dP/dS) / P of the unlevered price, same domain as the terms.

        S dP/dS = hold + b interior + k C [e^{-x1^2/2} - e^{-x2^2/2}],

    with b = z / (sigma sqrt(t)) and k = sqrt(tau/t) / (sigma sqrt(2 pi T));
    the cdf limits' own derivatives cancel between neighbouring terms.  Each
    piece enters as exp(log piece - log P), so nothing overflows.
    """
    sigma = float(spec.sigma[0])
    (_, log_interior, log_hold), log_p, (z, log_c, x1, x2) = _log_unlevered_terms(spec, s, t, T)
    if not _all_finite(log_c):  # the price does not read C there, but the density terms do
        raise ValidationError(_QUAD_OVERFLOW)
    k = np.sqrt((T - t) / t) / (sigma * _SQRT_2PI * math.sqrt(T))
    with np.errstate(over="ignore"):  # x^2 = inf (|x| > 1.3e154) is a density term of 0
        density = np.exp(log_c - 0.5 * x1 * x1 - log_p) - np.exp(log_c - 0.5 * x2 * x2 - log_p)
    return (np.exp(log_hold - log_p)
            + z[..., 0] / (sigma * np.sqrt(t)) * np.exp(log_interior - log_p)
            + k * density)


def unlevered_terms(spec: MarketSpec, s, t: float, T: float) -> tuple[float, float, float]:
    """The three nonnegative pieces of the unlevered price (one asset, t < T).

    The pieces correspond to the terminal best rule being clamped at 0,
    interior, or clamped at 1; each solves the Black-Scholes equation on its
    own.  A term too small for float64 is returned as 0.0.
    """
    _check_mode(spec, "unlevered")
    t, T = _check_horizon(t, T, strict_end=True)
    log_terms, _, _ = _log_unlevered_terms(spec, _prices(spec, s), t, T)
    return tuple(_exp(float(log_term), "log_price_unlevered", zero_ok=True)
                 for log_term in log_terms)


def _log_unlevered_price(spec: MarketSpec, s, t: float, T: float):
    """Checked prices, their z, t, T and log P of one unlevered state; log P = log V_t* at t = T."""
    _check_mode(spec, "unlevered")
    t, T = _check_horizon(t, T)
    s = _prices(spec, s)
    if t == T:
        z = _z(spec, s, t)
        return s, z, t, T, float(_log_unlevered_intrinsic(spec, s, z, t))
    _, log_p, (z, *_) = _log_unlevered_terms(spec, s, t, T)
    return s, z, t, T, float(log_p)


def log_price_unlevered(spec: MarketSpec, s, t: float, T: float) -> float:
    """log of the unlevered price; safe for states where the price overflows.

    At t = T the option has expired and this is the log of the unlevered
    intrinsic value; t > T is rejected.
    """
    return _log_unlevered_price(spec, s, t, T)[-1]


def price_unlevered(spec: MarketSpec, s, t: float, T: float) -> Quote:
    """Price under hindsight optimization restricted to b in [0, 1] (one asset).

    At t = T the option has expired and the quote is the unlevered intrinsic
    value; t > T is rejected.
    """
    s, z, t, T, log_p = _log_unlevered_price(spec, s, t, T)
    log_v = log_p if t == T else float(_log_unlevered_intrinsic(spec, s, z, t))
    price = _exp(log_p, "log_price_unlevered")
    intrinsic = _exp(log_v, "log_price_unlevered")
    factor = _representable(price / intrinsic, "log_price_unlevered")
    return Quote(price=price, intrinsic=intrinsic, universality_factor=factor,
                 mode="unlevered", t=t, T=T)


def _time0_premium(sigma, T) -> tuple[float, float, float]:
    """``(sigma, T, premium)``: sigma and T read as floats, and the premium
    sigma sqrt(T / (2 pi)), the time-0 unlevered price less its cash floor of 1."""
    sigma, T = _real(sigma, "sigma"), _real(T, "T")
    if not 0 < sigma < math.inf:
        raise ValidationError("sigma must be positive and finite")
    if not 0 <= T < math.inf:
        raise ValidationError("T must be nonnegative and finite")
    return sigma, T, sigma * math.sqrt(T) / _SQRT_2PI


def price_time0_unlevered(sigma: float, T: float) -> float:
    """Time-0 unlevered price, 1 + sigma sqrt(T / (2 pi)); rate-free."""
    return _representable(1.0 + _time0_premium(sigma, T)[2], "time0_unlevered_excess_growth")


def greeks(spec: MarketSpec, s, t: float, T: float) -> GreeksReport:
    """Analytic sensitivities of the levered price (one asset, 0 < t < T)."""
    if spec.n != 1:
        raise ValidationError("greeks are defined for one asset")
    t, T = _check_horizon(t, T, strict_end=True)
    s = _prices(spec, s)
    s_val = float(s[0])
    sigma = float(spec.sigma[0])
    r = spec.rate
    state = _whitened(spec, s, t)
    z = float(state[0][0])
    w = sigma * math.sqrt(t)
    c = _exp(float(_log_levered_of(spec, *state, t, T)), "log_price_levered")
    try:
        delta = c * z / (s_val * w)
        gamma = c * (z * z - w * z + 1.0) / (s_val * s_val * w * w)
        theta = c * (r - (1.0 + z * z) / (2.0 * t) - z * (r - 0.5 * sigma * sigma) / w)
        vega = c * z * (w - z) / sigma
        rho = (1.0 - z / w) * c * t
    except ZeroDivisionError:  # a denominator underflowed to 0, as S^2 w^2 does at S = 1e-200
        raise _unrepresentable("log_price_levered") from None
    _representable([delta, gamma, theta, vega, rho], "log_price_levered")
    return GreeksReport(delta=delta, gamma=gamma, theta=theta, vega=vega, rho=rho)


def multi_delta(spec: MarketSpec, s, t: float, T: float) -> np.ndarray:
    """Replicating share holdings per asset: delta_i = C b_i(S, t) / S_i."""
    t, T = _check_horizon(t, T)
    s = _prices(spec, s)
    state = _whitened(spec, s, t)
    c = _exp(float(_log_levered_of(spec, *state, t, T)), "log_price_levered")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        delta = c * _fractions_of(spec, *state, t) / s
    return _representable(delta, "log_price_levered")


def implied_vols(observed_price: float, s: float, s0: float, t: float, T: float,
                 rate: float) -> ImpliedVolRoots:
    """All volatilities that rationalize an observed levered price (one asset).

    Writing x = sigma^2, K = 2(log C - log F) with the floor
    F = (T/t)^{1/2} e^{rt}, and Lp = log(S/S0) - rt, consistency of the
    observed price with the z-score definition requires

        (t^2/4) x^2 + t (Lp - K) x + Lp^2 = 0.

    Prices below the minimum rational price F raise
    :class:`IrrationalPriceError`.  Prices at or above that floor but outside
    the range attainable by any positive volatility (possible when
    Lp > 0 and K < 2 Lp) return no roots.  Every returned root is validated
    by round-trip repricing; a candidate whose repriced price overflows
    float64 is not a root.  A price, s, s0 or rate that is not one real
    number or not finite, or a non-positive price, s or s0, raises
    :class:`ValidationError`, even where the floor underflows to 0.
    """
    t, T = _check_horizon(t, T)
    observed_price, s, s0, rate = (_real(observed_price, "observed price"), _real(s, "s"),
                                   _real(s0, "s0"), _real(rate, "rate"))
    if not all(map(math.isfinite, (observed_price, s, s0, rate))):
        raise ValidationError("observed price, s, s0 and rate must be finite")
    if observed_price <= 0:
        raise ValidationError("observed price must be strictly positive")
    if s <= 0 or s0 <= 0:
        raise ValidationError("prices must be strictly positive")
    # A floor that underflows to 0 lies below every positive price.
    log_floor = float(_log_floor(1, t, T, rate))
    floor = _exp(log_floor, "log_price_levered", zero_ok=True)
    if observed_price < floor * (1.0 - 1e-12):
        raise IrrationalPriceError(
            f"observed price {observed_price!r} is below the minimum rational "
            f"price sqrt(T/t) * exp(r*t) = {floor!r}"
        )
    log_ratio = float(_log_ratio(np.float64(s), s0))
    log_move = log_ratio - rate * t
    k = max(2.0 * (math.log(observed_price) - log_floor), 0.0)
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
        if qa != 0.0:  # t^2/4 underflows to 0 where q / qa is infinite: no root
            candidates.append(q / qa)
        candidates.append(qc / q)
    roots = []
    for x in sorted(set(candidates)):
        if x <= 0.0 or not math.isfinite(x):
            continue
        sigma = math.sqrt(x)
        if roots and abs(sigma - roots[-1]) <= 1e-6 * sigma:
            continue  # double root (float noise in K splits it at ~1e-8): report once
        try:
            z = (log_ratio - (rate - 0.5 * x) * t) / (sigma * math.sqrt(t))
            repriced = math.exp(log_floor + 0.5 * z ** 2)
        except OverflowError:
            continue  # its price exceeds float64, so it is not the observed one
        if abs(repriced - observed_price) <= 1e-9 * observed_price:
            roots.append(sigma)
    return ImpliedVolRoots(roots=tuple(roots))


def time0_unlevered_excess_growth(sigma: float, T: float) -> float:
    """Regret rate of a time-0 unlevered buyer: log(1 + sigma sqrt(T/(2 pi))) / T.

    Where the premium overflows float64, the rate is taken from its log.  A
    rate that overflows float64, as at a subnormal T, raises :class:`ValidationError`.
    """
    if _real(T, "T") <= 0:  # refused before sigma, so a bad T names T whatever sigma is
        raise ValidationError("T must be positive")
    sigma, T, premium = _time0_premium(sigma, T)
    log_price = (math.log1p(premium) if premium < math.inf
                 else math.log(sigma) + 0.5 * math.log(T) - math.log(_SQRT_2PI))
    rate = log_price / T  # a float division overflows to inf without a warning
    if not math.isfinite(rate):
        raise ValidationError("the regret rate is not representable in float64")
    return rate


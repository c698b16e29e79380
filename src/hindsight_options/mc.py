"""Independent Monte Carlo pricer used as ground truth for the closed forms.

Prices are expected discounted payoffs under the risk-neutral measure.  A
European payoff measurable in (S_T, T) under exact-lognormal dynamics needs a
single simulation step, so estimates carry no discretization bias.

Variance note: the levered payoff exp(z_T' R^{-1} z_T / 2) is heavy-tailed.
Conditionally on the state at t, z_T = sqrt(t/T) z_t + sqrt(1 - t/T) y with y
unit normal, so the squared payoff carries exp((1 - t/T) y' R^{-1} y); the
plain estimator therefore has finite variance only when t > T/2.  For earlier
states the tail from an intermediate time s is integrated analytically,

    C(S_t, t) = e^{rt} (T/s)^{n/2} E_t[exp(z_s' R^{-1} z_s / 2)],

and simulating only up to s = min(1.5 t, T) < 2t keeps the variance finite
("partially exact" estimator).  Requesting the plain estimator for t <= T/2
is refused rather than returning a silently unstable number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ValidationError
from .hindsight import z_score
from .market import MarketSpec

_CHUNK = 1 << 16

ESTIMATORS = ("auto", "plain", "partial")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of the discounted payoff with its standard error."""

    mean: float
    std_error: float
    n_paths: int
    seed: int


def _chunk_streams(seed: int, n_total: int, chunk: int):
    """Deterministic per-chunk draw counts and generators, independent of order."""
    start = 0
    index = 0
    while start < n_total:
        size = min(chunk, n_total - start)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), index)))
        yield rng, size
        start += size
        index += 1


def mc_price(spec: MarketSpec, s, t: float, T: float, mode: str = "levered",
             n_paths: int = 100_000, seed: int = 0, *, antithetic: bool = True,
             estimator: str = "auto") -> McEstimate:
    """Monte Carlo price of the option in state (s, t), expiring at T.

    Parameters
    ----------
    mode : {"levered", "unlevered"}
        Unlevered requires a one-asset spec.  t = 0 is supported (state taken
        at the initial prices) except for the levered option, whose time-0
        price is infinite.
    antithetic : bool
        Pair each normal draw with its negation; n_paths is rounded down to
        an even count and each pair contributes one observation to the
        standard error.  Pairing helps the monotone unlevered payoff; the
        levered payoff is nearly even in the shock, so there it is roughly
        neutral.  Either way the estimator stays unbiased and the reported
        standard error is the honest one.
    estimator : {"auto", "plain", "partial"}
        Levered only.  "plain" simulates to T and refuses t <= T/2 (infinite
        variance); "partial" integrates the tail from s = min(1.5 t, T);
        "auto" picks plain whenever it is admissible.
    """
    if not 0 <= t < T:
        raise ValidationError("need 0 <= t < T")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    if estimator not in ESTIMATORS:
        raise ValidationError(f"unknown estimator {estimator!r}")
    if antithetic:
        n_paths = (n_paths // 2) * 2
    if n_paths < (4 if antithetic else 2):
        raise ValidationError("too few paths for a standard error")

    if mode == "levered":
        value_fn = _levered_value_fn(spec, s, t, T, estimator)
    elif mode == "unlevered":
        value_fn = _unlevered_value_fn(spec, s, t, T)
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    n_obs = n_paths // 2 if antithetic else n_paths
    total = 0.0
    total_sq = 0.0
    with np.errstate(over="ignore"):
        for rng, size in _chunk_streams(seed, n_obs, _CHUNK):
            y = rng.standard_normal((size, spec.n))
            if antithetic:
                vals = 0.5 * (value_fn(y) + value_fn(-y))
            else:
                vals = value_fn(y)
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
    if not math.isfinite(total_sq):
        raise ValidationError("Monte Carlo payoffs are not representable in float64")
    mean = total / n_obs
    var = max(total_sq - n_obs * mean * mean, 0.0) / (n_obs - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_obs),
                      n_paths=n_paths, seed=int(seed))


def _levered_value_fn(spec: MarketSpec, s, t: float, T: float, estimator: str):
    """Discounted-payoff evaluator for i.i.d. unit-normal input rows."""
    if t <= 0:
        raise ValidationError("the levered price diverges as t -> 0+; price at t > 0")
    if estimator == "plain":
        if t <= T / 2:
            raise ValidationError(
                "plain levered estimator has infinite variance for t <= T/2; "
                "use estimator='partial' or 'auto'"
            )
        s_eval = T
    elif estimator == "partial":
        s_eval = min(1.5 * t, T)
    else:
        s_eval = T if t > T / 2 else 1.5 * t
    z_t = z_score(spec, s, t).z
    inv_lower = solve_triangular(spec.lower, np.eye(spec.n), lower=True)
    w_t = math.sqrt(t / s_eval)
    w_y = math.sqrt(1.0 - t / s_eval)
    log_scale = spec.rate * t + 0.5 * spec.n * math.log(T / s_eval)

    def value(y: np.ndarray) -> np.ndarray:
        z_s = w_t * z_t + w_y * (y @ spec.lower.T)
        half_quad = 0.5 * np.sum((z_s @ inv_lower.T) ** 2, axis=1)
        return np.exp(log_scale + half_quad)

    return value


def _unlevered_value_fn(spec: MarketSpec, s, t: float, T: float):
    if spec.n != 1:
        raise ValidationError("unlevered pricing is defined for one asset")
    sigma = float(spec.sigma[0])
    r = spec.rate
    s0 = float(spec.s0[0])
    if t == 0:
        log_s_t = math.log(s0)
    else:
        log_s_t = math.log(float(np.atleast_1d(s)[0]))
        z_score(spec, s, t)  # validates the state prices
    tau = T - t
    drift = (r - 0.5 * sigma * sigma) * tau
    vol = sigma * math.sqrt(tau)
    w = sigma * math.sqrt(T)
    discount = math.exp(-r * tau)

    def value(y: np.ndarray) -> np.ndarray:
        log_ratio = log_s_t - math.log(s0) + drift + vol * y[:, 0]
        z_T = (log_ratio - (r - 0.5 * sigma * sigma) * T) / w
        payoff = np.where(z_T <= 0.0, math.exp(r * T),
                          np.where(z_T >= w, np.exp(log_ratio),
                                   np.exp(r * T + 0.5 * z_T * z_T)))
        return discount * payoff

    return value

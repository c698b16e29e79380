"""Independent Monte Carlo pricer used as ground truth for the closed forms.

Prices are expected discounted payoffs under the risk-neutral measure.  A
European payoff measurable in (S_T, T) under exact-lognormal dynamics needs a
single simulation step, so estimates carry no discretization bias.

Variance note: the levered payoff exp(z_T' R^{-1} z_T / 2) is heavy-tailed.
Conditionally on the state at t, z_T = sqrt(t/T) z_t + sqrt(1 - t/T) y with y
unit normal, so the k-th power of the payoff is integrable only when
k (1 - t/T) < 1: the plain estimator has finite variance for t > T/2, and a
finite fourth moment, which makes its standard error reliable, only for
t > 3T/4.  For earlier states the tail from an intermediate time s is
integrated analytically,

    C(S_t, t) = e^{rt} (T/s)^{n/2} E_t[exp(z_s' R^{-1} z_s / 2)],

and simulating only up to s = min(1.25 t, T) keeps 1 - t/s <= 1/5 < 1/4
("partially exact" estimator).  The estimator is chosen from t and T alone:
plain for t > 3T/4, partial otherwise.

Payoffs are evaluated in whitened coordinates: with x_t = L^{-1} z_t solved
once, L^{-1} z_s = w_t x_t + w_y y, so the antithetic pair +-y pays
exp(a +- c), a = a_0 + w_y^2 |y|^2 / 2, c = w_t w_y x_t . y.  The unlevered
payoff (the best fixed fraction in hindsight, clipped to [0, 1]) has log
rT + c (z_T - c/2) with c = clip(z_T, 0, w); draws that clamp to cash pay
exactly discount * e^{rT}.
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


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of the discounted payoff with its standard error."""

    mean: float
    std_error: float
    n_paths: int
    seed: int
    estimator: str  # "plain" or "partial" (levered), "exact" (unlevered)
    s_eval: float  # the time simulated to
    n_obs: int  # observations; an antithetic pair is one
    max_share: float  # largest single observation over the sum of all


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
             n_paths: int = 100_000, seed: int = 0, *, antithetic: bool = True) -> McEstimate:
    """Monte Carlo price of the option in state (s, t), expiring at T.

    The levered estimator is "plain" (simulates to T) for t > 3T/4, where its
    payoff has a finite fourth moment, and "partial" (integrates the tail from
    s = min(1.25 t, T)) otherwise; the result records which one ran.

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
    """
    if not 0 <= t < T:
        raise ValidationError("need 0 <= t < T")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    if antithetic:
        n_paths = (n_paths // 2) * 2
    if n_paths < (4 if antithetic else 2):
        raise ValidationError("too few paths for a standard error")

    if mode == "levered":
        if t <= 0:
            raise ValidationError("the levered price diverges as t -> 0+; price at t > 0")
        estimator = "plain" if t > 0.75 * T else "partial"
        s_eval = T if estimator == "plain" else min(1.25 * t, T)
        value = _levered_value_fn(spec, s, t, T, s_eval)
    elif mode == "unlevered":
        estimator, s_eval = "exact", T
        value = _unlevered_value_fn(spec, s, t, T)
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    n_obs = n_paths // 2 if antithetic else n_paths
    total = total_sq = top = 0.0
    with np.errstate(over="ignore"):
        for rng, size in _chunk_streams(seed, n_obs, _CHUNK):
            vals = value(rng.standard_normal((size, spec.n)), antithetic)
            total += float(np.sum(vals))
            total_sq += float(np.sum(vals * vals))
            top = max(top, float(np.max(vals)))
    if not math.isfinite(total_sq):
        raise ValidationError("Monte Carlo payoffs are not representable in float64")
    mean = total / n_obs
    var = max(total_sq - n_obs * mean * mean, 0.0) / (n_obs - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n_obs),
                      n_paths=n_paths, seed=int(seed), estimator=estimator,
                      s_eval=s_eval, n_obs=n_obs,
                      max_share=top / total if total > 0 else 0.0)


def _levered_value_fn(spec: MarketSpec, s, t: float, T: float, s_eval: float):
    """Discounted-payoff evaluator ``value(y, antithetic)`` for unit-normal rows y."""
    x_t = solve_triangular(spec.lower, z_score(spec, s, t).z, lower=True)
    w_t = math.sqrt(t / s_eval)
    w_y = math.sqrt(1.0 - t / s_eval)
    a_0 = (spec.rate * t + 0.5 * spec.n * math.log(T / s_eval)
           + 0.5 * w_t * w_t * float(x_t @ x_t))
    half_wy2 = 0.5 * w_y * w_y
    k = (w_t * w_y) * x_t

    def value(y: np.ndarray, antithetic: bool) -> np.ndarray:
        a = a_0 + half_wy2 * np.einsum("ij,ij->i", y, y)
        c = y @ k
        if antithetic:
            return 0.5 * (np.exp(a + c) + np.exp(a - c))
        return np.exp(a + c)

    return value


def _unlevered_value_fn(spec: MarketSpec, s, t: float, T: float):
    """Discounted-payoff evaluator ``value(y, antithetic)`` for unit-normal rows y."""
    if spec.n != 1:
        raise ValidationError("unlevered pricing is defined for one asset")
    sigma, r, s0 = float(spec.sigma[0]), spec.rate, float(spec.s0[0])
    if t > 0:
        z_score(spec, s, t)  # validates the state prices
    log_s_t = math.log(float(np.atleast_1d(s)[0]) if t > 0 else s0)
    tau = T - t
    w = sigma * math.sqrt(T)
    mu_rn = r - 0.5 * sigma * sigma
    # z_T = z_mid + k y: the hindsight z-score at T for the draw y
    z_mid = (log_s_t - math.log(s0) + mu_rn * tau - mu_rn * T) / w
    k = sigma * math.sqrt(tau) / w
    cash = math.exp(-r * tau) * math.exp(r * T)

    def growth(z_T: np.ndarray) -> np.ndarray:
        c = np.clip(z_T, 0.0, w)
        return np.exp(c * (z_T - 0.5 * c))

    def value(y: np.ndarray, antithetic: bool) -> np.ndarray:
        ky = k * y[:, 0]
        if antithetic:
            return (0.5 * cash) * (growth(z_mid + ky) + growth(z_mid - ky))
        return cash * growth(z_mid + ky)

    return value

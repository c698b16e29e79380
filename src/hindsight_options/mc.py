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
exp(a +- c), a = a_0 + w_y^2 |y|^2 / 2, c = w_t w_y x_t . y.  With one asset
|y|^2 and x_t . y are the products y_0 y_0 and y_0 k_0, which give the bits of
the einsum and the mat-vec at a fraction of their cost.  The unlevered
payoff (the best fixed fraction in hindsight, clipped to [0, 1]) has log
rT + c (z_T - c/2) with c = clip(z_T, 0, w); draws that clamp to cash pay
exactly discount * e^{rT}.

:func:`mc_prices` prices several modes of one state in one pass: each chunk
of normals is drawn once and every mode's evaluator reads it, read-only, so a
one-asset state's levered and unlevered estimates share their draws (common
random numbers).  Each estimate equals, bit for bit, the one :func:`mc_price`
returns for its mode alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ValidationError
from .hindsight import _check_mode, z_score
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
    return mc_prices(spec, s, t, T, (mode,), n_paths, seed, antithetic=antithetic)[0]


def mc_prices(spec: MarketSpec, s, t: float, T: float, modes: Sequence[str],
              n_paths: int = 100_000, seed: int = 0, *,
              antithetic: bool = True) -> tuple[McEstimate, ...]:
    """:func:`mc_price` for each of ``modes`` in one pass over the draws.

    Every chunk of normals is drawn once and fed to each mode's payoff, so the
    estimates share their draws (common random numbers) and each equals, field
    for field, what :func:`mc_price` returns for its mode alone.
    """
    if not 0 <= t < T:
        raise ValidationError("need 0 <= t < T")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    if antithetic:
        n_paths = (n_paths // 2) * 2
    if n_paths < (4 if antithetic else 2):
        raise ValidationError("too few paths for a standard error")
    if not modes:
        raise ValidationError("need at least one mode")

    runs = [_estimator(spec, s, t, T, mode) for mode in modes]
    n_obs = n_paths // 2 if antithetic else n_paths
    total = [0.0] * len(runs)
    total_sq = [0.0] * len(runs)
    top = [0.0] * len(runs)
    with np.errstate(over="ignore"):
        for rng, size in _chunk_streams(seed, n_obs, _CHUNK):
            y = rng.standard_normal((size, spec.n))
            y.flags.writeable = False  # shared by every mode's payoff
            for i, (_, _, value) in enumerate(runs):
                vals = value(y, antithetic)
                total[i] += float(np.sum(vals))
                top[i] = max(top[i], float(np.max(vals)))
                total_sq[i] += float(np.sum(np.multiply(vals, vals, out=vals)))
    if not all(map(math.isfinite, total_sq)):
        raise ValidationError("Monte Carlo payoffs are not representable in float64")
    estimates = []
    for (estimator, s_eval, _), tot, sq, mx in zip(runs, total, total_sq, top):
        mean = tot / n_obs
        var = max(sq - n_obs * mean * mean, 0.0) / (n_obs - 1)
        estimates.append(McEstimate(mean=mean, std_error=math.sqrt(var / n_obs),
                                    n_paths=n_paths, seed=int(seed), estimator=estimator,
                                    s_eval=s_eval, n_obs=n_obs,
                                    max_share=mx / tot if tot > 0 else 0.0))
    return tuple(estimates)


def _estimator(spec: MarketSpec, s, t: float, T: float, mode: str):
    """``(estimator, s_eval, value)`` of one mode: its name, horizon and payoff evaluator."""
    _check_mode(spec, mode)
    if mode == "levered":
        if t <= 0:
            raise ValidationError("the levered price diverges as t -> 0+; price at t > 0")
        estimator = "plain" if t > 0.75 * T else "partial"
        s_eval = T if estimator == "plain" else min(1.25 * t, T)
        return estimator, s_eval, _levered_value_fn(spec, s, t, T, s_eval)
    return "exact", T, _unlevered_value_fn(spec, s, t, T)


def _levered_value_fn(spec: MarketSpec, s, t: float, T: float, s_eval: float):
    """Discounted-payoff evaluator ``value(y, antithetic)`` for unit-normal rows y.

    ``value`` only reads ``y``, which other modes share, and returns a new array.
    """
    x_t = solve_triangular(spec.lower, z_score(spec, s, t).z, lower=True)
    w_t = math.sqrt(t / s_eval)
    w_y = math.sqrt(1.0 - t / s_eval)
    a_0 = (spec.rate * t + 0.5 * spec.n * math.log(T / s_eval)
           + 0.5 * w_t * w_t * float(x_t @ x_t))
    half_wy2 = 0.5 * w_y * w_y
    k = (w_t * w_y) * x_t

    def value(y: np.ndarray, antithetic: bool) -> np.ndarray:
        if spec.n == 1:  # one product per row where einsum and the mat-vec cost far more
            y0 = y[:, 0]
            a = y0 * y0
            c = y0 * k[0]
        else:
            a = np.einsum("ij,ij->i", y, y)
            c = y @ k
        a *= half_wy2
        a += a_0
        if not antithetic:
            a += c
            return np.exp(a, out=a)
        pay = np.exp(a + c)
        a -= c
        pay += np.exp(a, out=a)
        pay *= 0.5
        return pay

    return value


def _unlevered_value_fn(spec: MarketSpec, s, t: float, T: float):
    """Discounted-payoff evaluator ``value(y, antithetic)`` for unit-normal rows y.

    ``value`` only reads ``y``, which other modes share, and returns a new array.
    """
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
        """exp(c (z_T - c/2)), c = clip(z_T, 0, w), written over z_T."""
        c = np.clip(z_T, 0.0, w)
        z_T -= 0.5 * c
        z_T *= c
        return np.exp(z_T, out=z_T)

    def value(y: np.ndarray, antithetic: bool) -> np.ndarray:
        ky = k * y[:, 0]
        pay = growth(z_mid + ky)
        if antithetic:
            pay += growth(np.subtract(z_mid, ky, out=ky))
            pay *= 0.5 * cash
        else:
            pay *= cash
        return pay

    return value

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
once, L^{-1} z_s = w_t x_t + w_y y for a unit-normal row y, so the
antithetic pair +-y pays exp(a +- c), a = a_0 + w_y^2 |y|^2 / 2,
c = k . y, k = w_t w_y x_t.  The payoff reads y only through k . y and
|y|^2, and y is isotropic: a rotation taking k to |k| e_1 leaves its law
unchanged, so (k . y, |y|^2) has the law of (kappa g, g^2 + r) with g unit
normal, r ~ chi^2_{n-1} independent of g, and kappa = +-|k| (Glasserman,
*Monte Carlo Methods in Financial Engineering*, 2003).  Each observation
therefore draws one normal g and, for n >= 2, one chi^2_{n-1} variate r,
whatever the asset count; the antithetic pair +-g shares its r.  With one
asset there is no r and kappa = k_0, so g is y itself and the payoff has the
bits of the y form; with n >= 2 assets the draws (g, r) sample the same law
as the rows y with different numbers.  The unlevered payoff
(the best fixed fraction in hindsight, clipped to [0, 1]) has log
rT + c (z_T - c/2) with c = clip(z_T, 0, w), z_T affine in g; draws that
clamp to cash pay exactly discount * e^{rT}.

:func:`mc_prices` prices several modes of one state in one pass: each chunk
of draws is made once and every mode's evaluator reads it, read-only, so a
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
from .hindsight import _check_mode, _prices, z_score
from .market import MarketSpec, _streams

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
        Pair each normal draw g with its negation, the pair sharing its
        chi-square draw; n_paths is rounded down to
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

    Every chunk of draws is made once and fed to each mode's payoff, so the
    estimates share their draws (common random numbers) and each equals, field
    for field, what :func:`mc_price` returns for its mode alone.
    """
    if not 0 <= t < T < math.inf:
        raise ValidationError("need 0 <= t < T < inf")
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
        for _, rng, size in _streams(seed, n_obs, _CHUNK):
            g, r = _draws(rng, size, spec.n)
            for i, (_, _, value) in enumerate(runs):
                vals = value(g, r, antithetic)
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


def _draws(rng: np.random.Generator, size: int, n: int):
    """Read-only ``(g, r)``: unit normals, then chi^2_{n-1} variates (None for n = 1)."""
    g = rng.standard_normal(size)
    g.flags.writeable = False  # shared by every mode's payoff
    if n == 1:
        return g, None
    if n == 2:  # numpy's Gamma(1/2) sampler costs about three normals
        r = np.square(rng.standard_normal(size))
    else:
        r = rng.chisquare(n - 1, size)
    r.flags.writeable = False
    return g, r


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
    """Discounted-payoff evaluator ``value(g, r, antithetic)`` for the draws of :func:`_draws`.

    ``value`` only reads ``g`` and ``r``, which other modes share, and returns
    a new array.
    """
    x_t = solve_triangular(spec.lower, z_score(spec, s, t), lower=True)
    w_t = math.sqrt(t / s_eval)
    w_y = math.sqrt(1.0 - t / s_eval)
    a_0 = (spec.rate * t + 0.5 * spec.n * math.log(T / s_eval)
           + 0.5 * w_t * w_t * float(x_t @ x_t))
    half_wy2 = 0.5 * w_y * w_y
    k = (w_t * w_y) * x_t
    kappa = math.copysign(math.hypot(*k), k[0])  # k_0 itself for one asset

    def value(g: np.ndarray, r: np.ndarray | None, antithetic: bool) -> np.ndarray:
        a = g * g
        if r is not None:
            a += r
        a *= half_wy2
        a += a_0
        c = g * kappa
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
    """Discounted-payoff evaluator ``value(g, r, antithetic)`` for the draws of :func:`_draws`.

    ``value`` only reads ``g`` (one asset has no ``r``), which other modes
    share, and returns a new array.
    """
    sigma, rate, s0 = float(spec.sigma[0]), spec.rate, float(spec.s0[0])
    s = _prices(spec, s)  # checked at every t, although at t = 0 the state is taken at s0
    if t > 0:
        z_score(spec, s, t)  # refuses a state whose z is not finite
    log_s_t = math.log(float(s[0]) if t > 0 else s0)
    tau = T - t
    w = sigma * math.sqrt(T)
    mu_rn = rate - 0.5 * sigma * sigma
    # z_T = z_mid + k g: the hindsight z-score at T for the draw g
    z_mid = (log_s_t - math.log(s0) + mu_rn * tau - mu_rn * T) / w
    k = sigma * math.sqrt(tau) / w
    try:
        cash = math.exp(-rate * tau) * math.exp(rate * T)
    except OverflowError:
        raise ValidationError("the cash payoff e^{rT} is not representable in float64") from None

    def growth(z_T: np.ndarray) -> np.ndarray:
        """exp(c (z_T - c/2)), c = clip(z_T, 0, w), written over z_T."""
        c = np.clip(z_T, 0.0, w)
        z_T -= 0.5 * c
        z_T *= c
        return np.exp(z_T, out=z_T)

    def value(g: np.ndarray, _r: np.ndarray | None, antithetic: bool) -> np.ndarray:
        ky = k * g
        pay = growth(z_mid + ky)
        if antithetic:
            pay += growth(np.subtract(z_mid, ky, out=ky))
            pay *= 0.5 * cash
        else:
            pay *= cash
        return pay

    return value

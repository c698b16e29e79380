"""Independent reference values for the benchmark's output checks.

Every check rests on an identity from the paper, recomputed here with numpy
and the standard library only, never on a stored digest of seeded output:

* the levered price C = (T/t)^{n/2} exp(rt + z'R^{-1}z/2) and its replicating
  holdings C R^{-1}z / (S sigma sqrt(t));
* the unlevered price as an expectation of the clamped payoff, with the two
  clamped regimes in closed form and the interior regime by Gauss-Legendre
  quadrature;
* the Black-Scholes identity sigma^2 S^2 gamma / 2 + r S delta + theta = r C;
* binomial-lattice prices as log-space sums of the wealth of the
  hindsight-optimal fixed fraction, evaluated from its definition;
* the growth experiment's wealth W_T = W_w C(S_T, T) / C(S_w, w), sampled
  from the exact lognormal law of the prices at the buy-in w and at T;
* the moments of a GBM path's log increments.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(200)


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b))


def z_scores(sigma, rate: float, s0, s, t: float) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    return ((np.log(np.asarray(s, dtype=float) / np.asarray(s0, dtype=float))
             - (rate - 0.5 * sigma**2) * t) / (sigma * math.sqrt(t)))


def log_levered_price(sigma, corr, rate: float, s0, s, t: float, T: float) -> float:
    z = z_scores(sigma, rate, s0, s, t)
    quad = float(z @ np.linalg.solve(np.asarray(corr, dtype=float), z))
    return 0.5 * z.size * math.log(T / t) + rate * t + 0.5 * quad


def levered_holdings(sigma, corr, rate: float, s0, s, t: float, T: float) -> np.ndarray:
    """Replicating share counts C b / S with b = M^{-1} R^{-1} z / sqrt(t)."""
    sigma = np.asarray(sigma, dtype=float)
    z = z_scores(sigma, rate, s0, s, t)
    b = np.linalg.solve(np.asarray(corr, dtype=float), z) / (sigma * math.sqrt(t))
    c = math.exp(log_levered_price(sigma, corr, rate, s0, s, t, T))
    return c * b / np.asarray(s, dtype=float)


def unlevered_price(sigma: float, rate: float, s0: float, s: float, t: float,
                    T: float) -> float:
    """Discounted expectation of the clamped payoff, one asset, 0 < t < T.

    Under the martingale measure z_T = (sqrt(t) z_t + sqrt(T - t) y) / sqrt(T)
    with y a unit normal.  The payoff is e^{rT} for z_T <= 0, S_T/S_0 for
    z_T >= sigma sqrt(T), and exp(rT + z_T^2 / 2) in between.
    """
    z = float(z_scores(sigma, rate, s0, s, t))
    tau = T - t
    y_lo = -z * math.sqrt(t / tau)                     # z_T = 0
    y_hi = (sigma * T - z * math.sqrt(t)) / math.sqrt(tau)  # z_T = sigma sqrt(T)
    cash = math.exp(rate * t) * norm_cdf(y_lo)
    # Under the stock numeraire y gains the drift sigma sqrt(tau).
    hold = (s / s0) * norm_cdf(sigma * math.sqrt(tau) - y_hi)
    y = 0.5 * (y_hi - y_lo) * _LEG_X + 0.5 * (y_hi + y_lo)
    z_T = (math.sqrt(t) * z + math.sqrt(tau) * y) / math.sqrt(T)
    density = np.exp(rate * t + 0.5 * z_T**2 - 0.5 * y**2) / math.sqrt(2.0 * math.pi)
    interior = 0.5 * (y_hi - y_lo) * float(_LEG_W @ density)
    return cash + interior + hold


def log_intrinsic(sigma: float, rate: float, s0: float, s: float, t: float,
                  mode: str) -> float:
    """log V_t*, the hindsight-optimal wealth over [0, t], one asset."""
    z = float(z_scores(sigma, rate, s0, s, t))
    if mode == "levered" or 0.0 <= z <= sigma * math.sqrt(t):
        return rate * t + 0.5 * z * z
    return rate * t if z < 0.0 else math.log(s / s0)


def hedge_error_std(sigma: float, rate: float, s0: float, times: np.ndarray,
                    prices: np.ndarray) -> float:
    """Predicted standard deviation of a discrete levered hedge's capture error.

    Rebalancing every dt leaves a relative error of about
    (gamma S^2 sigma^2 / 2C)(eps^2 - 1) dt per step, eps a unit normal, and
    gamma S^2 sigma^2 / C = (z^2 - w z + 1) / t with w = sigma sqrt(t).
    Summing the variances over the rebalance times gives the prediction.
    The unlevered option's clamped holdings have less gamma, so the same
    figure bounds its error too.
    """
    dt = np.diff(times)
    t = times[:-1]
    w = sigma * np.sqrt(t)
    z = (np.log(prices[:-1] / s0) - (rate - 0.5 * sigma**2) * t) / w
    return math.sqrt(0.5 * float(np.sum(((z * z - w * z + 1.0) * dt / t) ** 2)))


def black_scholes_residual(g: dict, sigma: float, rate: float, s: float, c: float) -> float:
    """Relative residual of sigma^2 S^2 gamma / 2 + r S delta + theta - r C."""
    parts = (0.5 * sigma * sigma * s * s * g["gamma"], rate * s * g["delta"], g["theta"])
    scale = sum(abs(p) for p in parts) + abs(rate * c)
    return abs(sum(parts) - rate * c) / scale


def _log_fixed_fraction_wealth(b: np.ndarray, j: np.ndarray, n_total: int,
                               u: float, d: float, gross: float) -> np.ndarray:
    """log V_N(b) = N log R + j log(1 + b(u/R - 1)) + (N - j) log(1 + b(d/R - 1))."""
    out = np.full(j.shape, n_total * math.log(gross))
    for count, factor in ((j, 1.0 + b * (u / gross - 1.0)),
                          (n_total - j, 1.0 + b * (d / gross - 1.0))):
        used = count > 0
        out[used] += count[used] * np.log(factor[used])
    return out


def lattice_log_payoff(j: np.ndarray, n_total: int, u: float, d: float, r_per: float,
                       mode: str) -> np.ndarray:
    """log payoff after j ups: wealth of the best fixed fraction in hindsight.

    The levered maximizer of the concave log V_N(b) is
    b = R (j - Nq) / (N (u - d) q (1 - q)); the unlevered one clamps it to [0, 1].
    """
    gross = 1.0 + r_per
    q = (gross - d) / (u - d)
    j = np.asarray(j, dtype=float)
    b = gross * (j - n_total * q) / (n_total * (u - d) * q * (1.0 - q))
    if mode == "unlevered":
        b = np.clip(b, 0.0, 1.0)
    return _log_fixed_fraction_wealth(b, j, n_total, u, d, gross)


def _logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


def lattice_log_price(k: int, n: int, n_total: int, u: float, d: float, r_per: float,
                      mode: str) -> float:
    """log C(k, n): discounted risk-neutral expectation of the payoff, in log space."""
    gross = 1.0 + r_per
    q = (gross - d) / (u - d)
    m = n_total - n
    j = np.arange(m + 1, dtype=float)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, m + 1.0)))])
    log_binom = log_fact[m] - log_fact - log_fact[::-1]
    terms = (log_binom + j * math.log(q) + (m - j) * math.log(1.0 - q)
             + lattice_log_payoff(k + j, n_total, u, d, r_per, mode))
    return _logsumexp(terms) - m * math.log(gross)


def growth_cagr_moments(mu, sigma, corr, rate: float, T: float, warmup: float,
                        samples: int = 200_000, chunk: int = 25_000,
                        seed: int = 1810_02485) -> tuple[float, float, float]:
    """Mean, variance and fourth central moment of log(W_T)/T in the growth experiment.

    The account holds an equal-dollar basket worth $1 until the buy-in time
    w, then the levered option, so W_T = W_w C(S_T, T) / C(S_w, w).  Only
    the prices at w and at T enter, and under the physical measure
    log(S_t/S_0) = (mu - sigma^2/2) t + sigma B_t exactly, with B a Brownian
    motion of correlation ``corr``.  The moments come from ``samples`` draws
    of (B_w, B_T), taken in chunks to keep memory small.
    """
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    corr = np.asarray(corr, dtype=float)
    n = sigma.size
    lower = np.linalg.cholesky(corr)
    rng = np.random.default_rng(seed)

    def log_c(x: np.ndarray, t: float) -> np.ndarray:
        z = (x - (rate - 0.5 * sigma**2) * t) / (sigma * math.sqrt(t))
        quad = np.sum(z * np.linalg.solve(corr, z.T).T, axis=1)
        return 0.5 * n * math.log(T / t) + rate * t + 0.5 * quad

    values = []
    for _ in range(samples // chunk):
        b_w = math.sqrt(warmup) * rng.standard_normal((chunk, n)) @ lower.T
        b_T = b_w + math.sqrt(T - warmup) * rng.standard_normal((chunk, n)) @ lower.T
        x_w = (mu - 0.5 * sigma**2) * warmup + sigma * b_w
        x_T = (mu - 0.5 * sigma**2) * T + sigma * b_T
        log_w = np.log(np.mean(np.exp(x_w), axis=1))
        values.append((log_w + log_c(x_T, T) - log_c(x_w, warmup)) / T)
    cagr = np.concatenate(values)
    dev = cagr - cagr.mean()
    return float(cagr.mean()), float(np.mean(dev**2)), float(np.mean(dev**4))


def log_increment_scores(prices: np.ndarray, mu: float, sigma: float,
                         dt: float) -> dict[str, float]:
    """Standard scores of a one-asset GBM path's log increments against the law.

    Increments are i.i.d. normal with mean (mu - sigma^2/2) dt and variance
    sigma^2 dt.  The scores are the sample mean's and sample variance's
    deviations in standard errors, and the lag-1 autocorrelation times
    sqrt(count); each is about a unit normal for a correct path.
    """
    x = np.diff(np.log(prices))
    m = x.size
    var = sigma * sigma * dt
    dev = x - x.mean()
    return {
        "mean": (x.mean() - (mu - 0.5 * sigma * sigma) * dt) / math.sqrt(var / m),
        "variance": (np.mean((x - (mu - 0.5 * sigma * sigma) * dt) ** 2) / var - 1.0)
                    / math.sqrt(2.0 / m),
        "lag1": float(dev[1:] @ dev[:-1] / (dev @ dev)) * math.sqrt(m),
    }


def kelly(mu, sigma, corr, rate: float) -> tuple[np.ndarray, float]:
    """Growth-optimal fractions Sigma^{-1}(mu - r) and the growth rate they earn."""
    sigma = np.asarray(sigma, dtype=float)
    cov = sigma[:, None] * np.asarray(corr, dtype=float) * sigma[None, :]
    excess = np.asarray(mu, dtype=float) - rate
    b = np.linalg.solve(cov, excess)
    return b, rate + 0.5 * float(excess @ b)

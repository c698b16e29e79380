"""Monte Carlo oracle: determinism, error bars, estimator admissibility."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from hindsight_options import (
    MarketSpec,
    mc_price,
    mc_prices,
    price_levered,
    price_time0_unlevered,
    price_unlevered,
)
from hindsight_options.errors import ValidationError
from hindsight_options.hindsight import z_score
from hindsight_options.market import _streams
from hindsight_options.mc import (
    _CHUNK,
    _draws,
    _levered_value_fn,
    _unlevered_value_fn,
)

SPEC = MarketSpec.single(mu=0.05, sigma=0.3, rate=0.02, s0=1.0)


def state_at(spec, z, t):
    sigma = float(spec.sigma[0])
    return float(spec.s0[0]) * math.exp((spec.rate - 0.5 * sigma**2) * t
                                        + sigma * math.sqrt(t) * z)


def test_deterministic_given_seed():
    a = mc_price(SPEC, 1.1, 1.0, 2.0, "levered", n_paths=20_000, seed=3)
    b = mc_price(SPEC, 1.1, 1.0, 2.0, "levered", n_paths=20_000, seed=3)
    assert a == b
    c = mc_price(SPEC, 1.1, 1.0, 2.0, "levered", n_paths=20_000, seed=4)
    assert c.mean != a.mean


def test_zero_vol_payoff_is_deterministic():
    spec = MarketSpec.single(mu=0.03, sigma=1e-10, rate=0.03, s0=1.0)
    est = mc_price(spec, state_at(spec, 0.0, 1.0), 1.0, 3.0, "unlevered",
                   n_paths=10_000, seed=1)
    assert est.mean == pytest.approx(math.exp(0.03 * 1.0), rel=1e-8)
    assert est.std_error < 1e-9 * est.mean


def test_levered_estimate_matches_closed_form_interior():
    # t < T/2 exercises the partially exact estimator
    s = state_at(SPEC, 0.8, 1.0)
    closed = price_levered(SPEC, s, 1.0, 4.0).price
    est = mc_price(SPEC, s, 1.0, 4.0, "levered", n_paths=400_000, seed=11)
    assert abs(est.mean - closed) < 4.0 * est.std_error
    # t > 3T/4 uses the plain estimator
    s = state_at(SPEC, -0.5, 3.5)
    closed = price_levered(SPEC, s, 3.5, 4.0).price
    est = mc_price(SPEC, s, 3.5, 4.0, "levered", n_paths=400_000, seed=12)
    assert est.estimator == "plain"
    assert abs(est.mean - closed) < 4.0 * est.std_error


def test_unlevered_estimate_matches_closed_form():
    spec = MarketSpec.single(mu=0.0, sigma=0.3, rate=0.0, s0=1.0)
    closed = price_unlevered(spec, 1.2, 1.0, 2.0).price
    est = mc_price(spec, 1.2, 1.0, 2.0, "unlevered", n_paths=400_000, seed=5)
    assert abs(est.mean - closed) < 4.0 * est.std_error


@pytest.mark.parametrize("rate", [0.0, 0.05])
def test_time0_unlevered_estimate_is_rate_free(rate):
    spec = MarketSpec.single(mu=rate, sigma=0.7, rate=rate, s0=1.0)
    est = mc_price(spec, 1.0, 0.0, 5.0, "unlevered", n_paths=300_000, seed=2)
    assert abs(est.mean - price_time0_unlevered(0.7, 5.0)) < 4.0 * est.std_error


def test_doubling_paths_shrinks_the_error_bar():
    s = state_at(SPEC, 0.4, 1.5)
    ratios = []
    for seed in (21, 22, 23):
        small = mc_price(SPEC, s, 1.5, 2.0, "levered", n_paths=50_000, seed=seed)
        big = mc_price(SPEC, s, 1.5, 2.0, "levered", n_paths=100_000, seed=seed)
        ratios.append(small.std_error / big.std_error)
    for ratio in ratios:
        assert math.sqrt(2.0) * 0.8 < ratio < math.sqrt(2.0) * 1.2


def test_antithetic_agrees_with_plain_sampling():
    s = state_at(SPEC, 0.3, 2.5)
    with_pairs = mc_price(SPEC, s, 2.5, 4.0, "levered", n_paths=200_000, seed=7)
    without = mc_price(SPEC, s, 2.5, 4.0, "levered", n_paths=200_000, seed=8,
                       antithetic=False)
    combined = math.hypot(with_pairs.std_error, without.std_error)
    assert abs(with_pairs.mean - without.mean) < 4.0 * combined


def test_antithetic_reduces_error_for_the_monotone_payoff():
    spec = MarketSpec.single(mu=0.0, sigma=0.4, rate=0.02, s0=1.0)
    paired = mc_price(spec, 1.1, 1.0, 3.0, "unlevered", n_paths=200_000, seed=7)
    plain = mc_price(spec, 1.1, 1.0, 3.0, "unlevered", n_paths=200_000, seed=7,
                     antithetic=False)
    assert paired.std_error < plain.std_error


def test_partial_estimator_covers_the_same_state():
    s = state_at(SPEC, 1.2, 0.5)
    closed = price_levered(SPEC, s, 0.5, 4.0).price
    est = mc_price(SPEC, s, 0.5, 4.0, "levered", n_paths=400_000, seed=13)
    assert abs(est.mean - closed) < 4.0 * est.std_error


def test_levered_time0_is_rejected():
    with pytest.raises(ValidationError, match="diverges"):
        mc_price(SPEC, 1.0, 0.0, 2.0, "levered", n_paths=1000, seed=0)


@pytest.mark.filterwarnings("error")
def test_domain_checks():
    with pytest.raises(ValidationError):
        mc_price(SPEC, 1.0, 2.0, 2.0, "levered", n_paths=1000, seed=0)  # t = T
    # the state prices are checked at t = 0 too, where the state is taken at s0
    for s, message in (("junk", "^prices must be numbers$"),
                       (-5.0, "^prices must be strictly positive and finite$")):
        with pytest.raises(ValidationError, match=message):
            mc_price(SPEC, s, 0.0, 1.0, "unlevered", n_paths=1000, seed=0)
    # a finite T whose cash payoff e^{rT} overflows, and an infinite T
    with pytest.raises(ValidationError, match="cash payoff e\\^\\{rT\\} is not representable"):
        mc_price(MarketSpec.single(0.05, 0.2, 0.02), 1.0, 0.5, 1e308, "unlevered",
                 n_paths=1000, seed=0)
    with pytest.raises(ValidationError, match="^need 0 <= t < T < inf$"):
        mc_price(SPEC, 1.0, 0.5, math.inf, "unlevered", n_paths=1000, seed=0)
    with pytest.raises(ValidationError):
        mc_price(SPEC, 1.0, 1.0, 2.0, "straddle", n_paths=1000, seed=0)
    with pytest.raises(ValidationError):
        mc_price(SPEC, 1.0, 1.0, 2.0, "levered", n_paths=1000, seed=-1)
    # antithetic pairs round 5 paths down to 4, the fewest with a standard error
    assert mc_price(SPEC, 1.0, 1.0, 2.0, "levered", n_paths=5, seed=0).n_obs == 2
    for n_paths, antithetic in ((3, True), (1, False)):
        with pytest.raises(ValidationError, match="^too few paths for a standard error$"):
            mc_price(SPEC, 1.0, 1.0, 2.0, "levered", n_paths=n_paths, seed=0,
                     antithetic=antithetic)
    pair = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.2, 0.2), rho=0.0, rate=0.0)
    with pytest.raises(ValidationError, match="one asset"):
        mc_price(pair, [1.0, 1.0], 1.0, 2.0, "unlevered", n_paths=1000, seed=0)
    with pytest.raises(ValidationError, match="not representable"):
        mc_price(MarketSpec.single(0.0, 0.1, 0.0), [math.exp(60.0)], 1.0, 1.5,
                 n_paths=1000, seed=1)
    with pytest.raises(ValidationError, match="not representable"):
        mc_prices(MarketSpec.single(0.0, 0.1, 0.0), [math.exp(60.0)], 1.0, 1.5,
                  ("unlevered", "levered"), n_paths=1000, seed=1)
    with pytest.raises(ValidationError, match="at least one mode"):
        mc_prices(SPEC, 1.0, 1.0, 2.0, (), n_paths=1000, seed=0)
    with pytest.raises(ValidationError, match="unknown mode"):
        mc_prices(SPEC, 1.0, 1.0, 2.0, ("levered", "straddle"), n_paths=1000, seed=0)


def test_multi_asset_levered_estimate():
    spec = MarketSpec(n=3, mu=[0.02] * 3, sigma=[0.3, 0.5, 0.4],
                      corr=[[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]],
                      rate=0.02, s0=[1.0, 1.0, 1.0])
    s = np.array([1.1, 0.9, 1.05])
    closed = price_levered(spec, s, 1.5, 2.0).price
    est = mc_price(spec, s, 1.5, 2.0, "levered", n_paths=300_000, seed=6)
    assert abs(est.mean - closed) < 4.0 * est.std_error


MULTI_ASSET = {
    2: MarketSpec.pair(mu=(0.03, 0.01), sigma=(0.3, 0.6), rho=-0.5, rate=0.02),
    3: MarketSpec(n=3, mu=[0.04, 0.0, 0.02], sigma=[0.3, 0.5, 0.4],
                  corr=[[1.0, -0.3, 0.1], [-0.3, 1.0, 0.4], [0.1, 0.4, 1.0]],
                  rate=0.01, s0=[1.0, 1.0, 1.0]),
}


@pytest.mark.parametrize("n", sorted(MULTI_ASSET))
@pytest.mark.parametrize("antithetic", [True, False])
def test_multi_asset_estimates_from_one_normal_and_one_chi_square(n, antithetic):
    # each observation draws g and r ~ chi^2_{n-1} in place of n normals
    spec = MULTI_ASSET[n]
    s = np.array([1.25, 0.8, 1.1])[:n]
    T = 2.0
    for t, used, seed in ((0.3 * T, "partial", 31), (0.8 * T, "plain", 32)):
        est = mc_price(spec, s, t, T, "levered", n_paths=300_000, seed=seed,
                       antithetic=antithetic)
        assert est.estimator == used
        assert abs(est.mean - price_levered(spec, s, t, T).price) < 4.0 * est.std_error


def test_auto_takes_plain_only_after_three_quarters_of_the_horizon():
    T = 4.0
    cases = [(3.0, "partial", 3.75),  # t = 3T/4 exactly
             (math.nextafter(3.0, T), "plain", T),
             (1.0, "partial", 1.25),
             (2.5, "partial", 3.125)]
    for t, used, s_eval in cases:
        est = mc_price(SPEC, 1.0, t, T, "levered", n_paths=1000, seed=0)
        assert (est.estimator, est.s_eval, est.n_obs) == (used, s_eval, 500)
    est = mc_price(SPEC, 1.0, 1.0, T, "unlevered", n_paths=1001, seed=0, antithetic=False)
    assert (est.estimator, est.s_eval, est.n_obs) == ("exact", T, 1001)


# The evaluators as they were before the whitened pair form; the new ones must
# give the same per-observation values up to rounding.

def reference_levered_value_fn(spec, s, t, T, s_eval):
    z_t = z_score(spec, s, t)
    inv_lower = solve_triangular(spec.lower, np.eye(spec.n), lower=True)
    w_t = math.sqrt(t / s_eval)
    w_y = math.sqrt(1.0 - t / s_eval)
    log_scale = spec.rate * t + 0.5 * spec.n * math.log(T / s_eval)

    def value(y):
        z_s = w_t * z_t + w_y * (y @ spec.lower.T)
        half_quad = 0.5 * np.sum((z_s @ inv_lower.T) ** 2, axis=1)
        return np.exp(log_scale + half_quad)

    return value


def reference_unlevered_value_fn(spec, s, t, T):
    sigma = float(spec.sigma[0])
    r = spec.rate
    s0 = float(spec.s0[0])
    log_s_t = math.log(s0) if t == 0 else math.log(float(np.atleast_1d(s)[0]))
    tau = T - t
    drift = (r - 0.5 * sigma * sigma) * tau
    vol = sigma * math.sqrt(tau)
    w = sigma * math.sqrt(T)
    discount = math.exp(-r * tau)

    def value(y):
        log_ratio = log_s_t - math.log(s0) + drift + vol * y[:, 0]
        z_T = (log_ratio - (r - 0.5 * sigma * sigma) * T) / w
        payoff = np.where(z_T <= 0.0, math.exp(r * T),
                          np.where(z_T >= w, np.exp(log_ratio),
                                   np.exp(r * T + 0.5 * z_T * z_T)))
        return discount * payoff

    return value


def reference_values(value, y, antithetic):
    return 0.5 * (value(y) + value(-y)) if antithetic else value(y)


def direction(spec, s, t):
    """k / kappa, the unit vector of k = w_t w_y L^{-1} z_t signed by its first entry."""
    x_t = solve_triangular(spec.lower, z_score(spec, s, t), lower=True)
    return x_t / math.copysign(math.hypot(*x_t), x_t[0])


def draws_of(y, k_hat):
    """The evaluators' (g, r) of rows y: g = y . k_hat, r = |y|^2 - g^2 (None for one asset)."""
    g = y @ k_hat
    if y.shape[1] == 1:
        return g, None
    return g, np.einsum("ij,ij->i", y, y) - g * g


def rows_of(g, r, k_hat):
    """Rows y with y . k_hat = g and |y|^2 = g^2 + r: g k_hat plus sqrt(r) along a unit
    vector orthogonal to k_hat."""
    basis = np.linalg.qr(k_hat[:, None], mode="complete")[0]
    return np.outer(g, k_hat) + np.outer(np.sqrt(r), basis[:, 1])


def reference_mc(value, n, n_paths, seed, antithetic=True, k_hat=None):
    """The chunk loop of mc_price around a reference evaluator of rows y.

    One asset draws the rows themselves; n >= 2 draws a normal g and then a
    chi^2_{n-1} variate r per row (a squared normal at n = 2) and reads the
    row of ``rows_of(g, r, k_hat)``.
    """
    n_obs = n_paths // 2 if antithetic else n_paths
    total = total_sq = 0.0
    for _, rng, size in _streams(seed, n_obs, _CHUNK):
        if n == 1:
            y = rng.standard_normal((size, 1))
        else:
            g = rng.standard_normal(size)
            r = np.square(rng.standard_normal(size)) if n == 2 else rng.chisquare(n - 1, size)
            y = rows_of(g, r, k_hat)
        vals = reference_values(value, y, antithetic)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / n_obs
    var = max(total_sq - n_obs * mean * mean, 0.0) / (n_obs - 1)
    return mean, math.sqrt(var / n_obs)


def random_state(rng, n):
    sigma = rng.uniform(0.15, 0.8, size=n)
    a = rng.standard_normal((n, n + 2))
    cov = a @ a.T
    d = 1.0 / np.sqrt(np.diag(cov))
    corr = d[:, None] * cov * d[None, :]
    rate = rng.uniform(0.0, 0.05)
    spec = MarketSpec(n=n, mu=np.full(n, rate), sigma=sigma, corr=corr, rate=rate,
                      s0=np.ones(n))
    T = rng.uniform(1.0, 4.0)
    t = rng.uniform(0.1, 0.9) * T
    shock = rng.standard_normal(n) @ spec.lower.T
    s = np.exp((rate - 0.5 * sigma**2) * t + sigma * np.sqrt(t) * shock)
    return spec, s, t, T


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("estimator", ["plain", "partial"])
@pytest.mark.parametrize("antithetic", [True, False])
def test_whitened_levered_values_match_the_reference(n, estimator, antithetic):
    rng = np.random.default_rng((n, len(estimator), antithetic))
    for _ in range(20):
        spec, s, t, T = random_state(rng, n)
        s_eval = T if estimator == "plain" else min(1.25 * t, T)
        y = rng.standard_normal((500, n))
        new = _levered_value_fn(spec, s, t, T, s_eval)(*draws_of(y, direction(spec, s, t)),
                                                        antithetic)
        old = reference_values(reference_levered_value_fn(spec, s, t, T, s_eval), y,
                               antithetic)
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("antithetic", [True, False])
def test_unlevered_values_match_the_reference_in_all_three_regions(antithetic):
    rng = np.random.default_rng(31)
    y = np.linspace(-8.0, 8.0, 801)[:, None]
    regions = np.zeros(3, dtype=int)
    for i in range(30):
        spec, s, t, T = random_state(rng, 1)
        t = 0.0 if i % 10 == 0 else t  # time 0 starts from s0
        new = _unlevered_value_fn(spec, s, t, T)(y[:, 0], None, antithetic)
        old = reference_values(reference_unlevered_value_fn(spec, s, t, T), y, antithetic)
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)
        sigma, r = float(spec.sigma[0]), spec.rate
        w = sigma * math.sqrt(T)
        log_s = 0.0 if t == 0 else math.log(float(s[0]))
        z_T = (log_s + (r - 0.5 * sigma**2) * (T - t) + sigma * math.sqrt(T - t) * y[:, 0]
               - (r - 0.5 * sigma**2) * T) / w
        regions += [np.sum(z_T <= 0.0), np.sum((z_T > 0.0) & (z_T < w)), np.sum(z_T >= w)]
    assert np.all(regions > 0)


def test_all_cash_state_is_bit_identical_to_the_reference_loop():
    # Every draw lands deep in the cash region, so each observation is the
    # constant discount * e^{rT} and the estimate must not move by a bit.
    # e^{-r(T-t)} e^{rT} and e^{rt} round apart in the last three states
    for rate, t, T in [(0.03, 1.8, 2.0), (0.03, 2.7, 3.1), (0.07, 0.95, 1.3),
                       (0.011, 3.3, 3.7)]:
        spec = MarketSpec.single(mu=rate, sigma=0.2, rate=rate, s0=1.0)
        s = state_at(spec, -30.0, t)
        for antithetic in (True, False):
            est = mc_price(spec, s, t, T, "unlevered", n_paths=100_000, seed=9,
                           antithetic=antithetic)
            ref = reference_mc(reference_unlevered_value_fn(spec, s, t, T), 1, 100_000, 9,
                               antithetic)
            assert (est.mean, est.std_error) == ref
            assert est.mean == pytest.approx(math.exp(rate * t), rel=1e-12)


def test_estimates_read_the_unchanged_streams():
    rng = np.random.default_rng(77)
    for n in (1, 3, 2, 4):
        spec, s, t, T = random_state(rng, n)
        for antithetic in (True, False):
            est = mc_price(spec, s, t, T, "levered", n_paths=150_000, seed=4,
                           antithetic=antithetic)
            ref = reference_levered_value_fn(spec, s, t, T, est.s_eval)
            mean, se = reference_mc(ref, n, 150_000, 4, antithetic, direction(spec, s, t))
            assert est.mean == pytest.approx(mean, rel=1e-12)
            assert est.std_error == pytest.approx(se, rel=1e-12)
    spec, s, t, T = random_state(rng, 1)
    est = mc_price(spec, s, t, T, "unlevered", n_paths=150_000, seed=4)
    mean, se = reference_mc(reference_unlevered_value_fn(spec, s, t, T), 1, 150_000, 4)
    assert est.mean == pytest.approx(mean, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-12)


def test_max_share_is_the_largest_observation_over_the_sum():
    s = state_at(SPEC, 0.5, 1.0)
    est = mc_price(SPEC, s, 1.0, 2.0, "levered", n_paths=2000, seed=5)
    y = next(_streams(5, 1000, _CHUNK))[1].standard_normal((1000, 1))
    vals = reference_values(reference_levered_value_fn(SPEC, s, 1.0, 2.0, est.s_eval),
                            y, True)
    assert est.max_share == pytest.approx(vals.max() / vals.sum(), rel=1e-12)
    assert 1.0 / 1000 < est.max_share < 1.0
    # every payoff underflows to 0 (e^{rt} with rt = -1000): no share, no error
    spec = MarketSpec.single(mu=-100.0, sigma=0.2, rate=-100.0, s0=1.0)
    est = mc_price(spec, 1e-300, 10.0, 10.5, "unlevered", n_paths=1000, seed=1)
    assert (est.mean, est.max_share) == (0.0, 0.0)


# The evaluators and the chunk loop as they were before the one-asset products,
# the in-place arithmetic and the shared draws; the estimates must keep every bit.

def einsum_levered_value_fn(spec, s, t, T, s_eval):
    x_t = solve_triangular(spec.lower, z_score(spec, s, t), lower=True)
    w_t = math.sqrt(t / s_eval)
    w_y = math.sqrt(1.0 - t / s_eval)
    a_0 = (spec.rate * t + 0.5 * spec.n * math.log(T / s_eval)
           + 0.5 * w_t * w_t * float(x_t @ x_t))
    half_wy2 = 0.5 * w_y * w_y
    k = (w_t * w_y) * x_t

    def value(y, antithetic):
        a = a_0 + half_wy2 * np.einsum("ij,ij->i", y, y)
        c = y @ k
        if antithetic:
            return 0.5 * (np.exp(a + c) + np.exp(a - c))
        return np.exp(a + c)

    return value


def out_of_place_unlevered_value_fn(spec, s, t, T):
    sigma, r, s0 = float(spec.sigma[0]), spec.rate, float(spec.s0[0])
    log_s_t = math.log(float(np.atleast_1d(s)[0]) if t > 0 else s0)
    tau = T - t
    w = sigma * math.sqrt(T)
    mu_rn = r - 0.5 * sigma * sigma
    z_mid = (log_s_t - math.log(s0) + mu_rn * tau - mu_rn * T) / w
    k = sigma * math.sqrt(tau) / w
    cash = math.exp(-r * tau) * math.exp(r * T)

    def growth(z_T):
        c = np.clip(z_T, 0.0, w)
        return np.exp(c * (z_T - 0.5 * c))

    def value(y, antithetic):
        ky = k * y[:, 0]
        if antithetic:
            return (0.5 * cash) * (growth(z_mid + ky) + growth(z_mid - ky))
        return cash * growth(z_mid + ky)

    return value


def one_mode_loop(spec, s, t, T, mode, n_paths, seed, antithetic):
    """(mean, std_error, max_share) from the chunk loop that drew once per mode."""
    if mode == "levered":
        s_eval = T if t > 0.75 * T else min(1.25 * t, T)
        value = einsum_levered_value_fn(spec, s, t, T, s_eval)
    else:
        value = out_of_place_unlevered_value_fn(spec, s, t, T)
    n_obs = n_paths // 2 if antithetic else n_paths
    total = total_sq = top = 0.0
    for _, rng, size in _streams(seed, n_obs, _CHUNK):
        vals = value(rng.standard_normal((size, spec.n)), antithetic)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
        top = max(top, float(np.max(vals)))
    mean = total / n_obs
    var = max(total_sq - n_obs * mean * mean, 0.0) / (n_obs - 1)
    return mean, math.sqrt(var / n_obs), top / total if total > 0 else 0.0


@pytest.mark.parametrize("antithetic", [True, False])
def test_one_pass_prices_each_mode_as_a_pass_of_its_own(antithetic):
    # 262,151 paths: 3 chunks of pairs, or 5 chunks unpaired, the last one short
    n_paths = 262_151
    for t, T, used in [(3.5, 4.0, "plain"), (1.0, 4.0, "partial"), (2.7, 3.1, "plain")]:
        z = -8.0 if t == 2.7 else 0.4  # every unlevered draw of the last state is cash
        s = state_at(SPEC, z, t)
        pair = mc_prices(SPEC, s, t, T, ("levered", "unlevered"), n_paths=n_paths, seed=17,
                         antithetic=antithetic)
        alone = tuple(mc_price(SPEC, s, t, T, mode, n_paths=n_paths, seed=17,
                               antithetic=antithetic) for mode in ("levered", "unlevered"))
        assert pair == alone
        assert [est.estimator for est in pair] == [used, "exact"]
        assert pair[0].n_obs == (131_075 if antithetic else 262_151)
        for mode, est in zip(("levered", "unlevered"), pair):
            assert (est.mean, est.std_error, est.max_share) == one_mode_loop(
                SPEC, s, t, T, mode, n_paths, 17, antithetic)


EXTREME_Y = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-200, 1.0, -1.0, 8.5, -8.5,
                      40.0, -40.0, 1e154, -1e154, 1e200, -1e300])[:, None]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_levered_values_are_the_einsum_form_bit_for_bit(n):
    # bit for bit with one asset, where g = y_0 and there is no r; to 1e-12 for
    # n >= 2, where g = y . k_hat and r = |y|^2 - g^2 round apart from the rows
    rng = np.random.default_rng(43 + n)
    for i in range(20):
        spec, s, t, T = random_state(rng, n)
        s_eval = T if i % 2 else min(1.25 * t, T)
        ys = [rng.standard_normal((1000, n)) * rng.uniform(0.1, 10.0)]
        if n == 1:
            ys.append(EXTREME_Y)
        for y in ys:
            for antithetic in (True, False):
                with np.errstate(over="ignore", invalid="ignore"):
                    new = _levered_value_fn(spec, s, t, T, s_eval)(
                        *draws_of(y, direction(spec, s, t)), antithetic)
                    old = einsum_levered_value_fn(spec, s, t, T, s_eval)(y, antithetic)
                if n == 1:
                    assert new.tobytes() == old.tobytes()
                else:
                    np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)


def test_unlevered_values_keep_their_out_of_place_bits():
    rng = np.random.default_rng(47)
    for i in range(20):
        spec, s, t, T = random_state(rng, 1)
        t = 0.0 if i % 5 == 0 else t
        for y in (rng.standard_normal((1000, 1)) * rng.uniform(0.1, 10.0), EXTREME_Y):
            for antithetic in (True, False):
                with np.errstate(over="ignore", invalid="ignore"):
                    new = _unlevered_value_fn(spec, s, t, T)(y[:, 0], None, antithetic)
                    old = out_of_place_unlevered_value_fn(spec, s, t, T)(y, antithetic)
                assert new.tobytes() == old.tobytes()


def test_evaluators_only_read_the_draws_they_share():
    rng = np.random.default_rng(53)
    for n in (1, 2, 3):
        spec, s, t, T = random_state(rng, n)
        evaluators = [_levered_value_fn(spec, s, t, T, s_eval)
                      for s_eval in (T, min(1.25 * t, T))]
        if n == 1:
            evaluators += [_unlevered_value_fn(spec, s, t, T), _unlevered_value_fn(spec, s, 0.0, T)]
        g, r = _draws(rng, 300, n)
        draws = [g] if r is None else [g, r]
        assert len(draws) == min(n, 2) and not any(draw.flags.writeable for draw in draws)
        before = [draw.copy() for draw in draws]
        for value in evaluators:
            for antithetic in (True, False):
                vals = value(g, r, antithetic)
                assert vals.shape == (300,) and vals.flags.writeable
                assert not any(np.shares_memory(vals, draw) for draw in draws)
        assert all(map(np.array_equal, draws, before))

"""Monte Carlo oracle: determinism, error bars, estimator admissibility."""

import math

import numpy as np
import pytest

from hindsight_options import (
    MarketSpec,
    mc_price,
    price_levered,
    price_time0_unlevered,
    price_unlevered,
)
from hindsight_options.errors import ValidationError

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
    # t > T/2 uses the plain estimator
    s = state_at(SPEC, -0.5, 3.0)
    closed = price_levered(SPEC, s, 3.0, 4.0).price
    est = mc_price(SPEC, s, 3.0, 4.0, "levered", n_paths=400_000, seed=12,
                   estimator="plain")
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


def test_plain_estimator_refuses_infinite_variance_states():
    with pytest.raises(ValidationError, match="infinite variance"):
        mc_price(SPEC, 1.0, 1.0, 4.0, "levered", n_paths=1000, seed=0,
                 estimator="plain")
    # boundary: t = T/2 is still inadmissible, just above is fine
    with pytest.raises(ValidationError):
        mc_price(SPEC, 1.0, 2.0, 4.0, "levered", n_paths=1000, seed=0,
                 estimator="plain")
    mc_price(SPEC, 1.0, 2.01, 4.0, "levered", n_paths=1000, seed=0,
             estimator="plain")


def test_partial_estimator_covers_the_same_state():
    s = state_at(SPEC, 1.2, 0.5)
    closed = price_levered(SPEC, s, 0.5, 4.0).price
    est = mc_price(SPEC, s, 0.5, 4.0, "levered", n_paths=400_000, seed=13,
                   estimator="partial")
    assert abs(est.mean - closed) < 4.0 * est.std_error


def test_levered_time0_is_rejected():
    with pytest.raises(ValidationError, match="diverges"):
        mc_price(SPEC, 1.0, 0.0, 2.0, "levered", n_paths=1000, seed=0)


def test_domain_checks():
    with pytest.raises(ValidationError):
        mc_price(SPEC, 1.0, 2.0, 2.0, "levered", n_paths=1000, seed=0)  # t = T
    with pytest.raises(ValidationError):
        mc_price(SPEC, 1.0, 1.0, 2.0, "straddle", n_paths=1000, seed=0)
    with pytest.raises(ValidationError):
        mc_price(SPEC, 1.0, 1.0, 2.0, "levered", n_paths=1000, seed=-1)
    pair = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.2, 0.2), rho=0.0, rate=0.0)
    with pytest.raises(ValidationError, match="one asset"):
        mc_price(pair, [1.0, 1.0], 1.0, 2.0, "unlevered", n_paths=1000, seed=0)
    with pytest.raises(ValidationError, match="not representable"):
        mc_price(MarketSpec.single(0.0, 0.1, 0.0), [math.exp(60.0)], 1.0, 1.5,
                 n_paths=1000, seed=1)


def test_multi_asset_levered_estimate():
    spec = MarketSpec(n=3, mu=[0.02] * 3, sigma=[0.3, 0.5, 0.4],
                      corr=[[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]],
                      rate=0.02, s0=[1.0, 1.0, 1.0])
    s = np.array([1.1, 0.9, 1.05])
    closed = price_levered(spec, s, 1.5, 2.0).price
    est = mc_price(spec, s, 1.5, 2.0, "levered", n_paths=300_000, seed=6)
    assert abs(est.mean - closed) < 4.0 * est.std_error

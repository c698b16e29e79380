"""Hindsight rules, realized wealth, intrinsic value, and the Kelly benchmark."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hindsight_options import (
    MarketSpec,
    RebalancingRule,
    best_rule,
    covariance,
    intrinsic_value,
    kelly_rule,
    simulate_paths,
    wealth_of_rule,
    z_score,
)
from hindsight_options.errors import ValidationError

SPEC = MarketSpec.single(mu=0.0, sigma=0.2, rate=0.03, s0=100.0)


def drift_price(spec, t):
    """The z = 0 price S0 * exp((r - sigma^2/2) t)."""
    return float(spec.s0[0]) * math.exp((spec.rate - 0.5 * spec.sigma[0] ** 2) * t)


def grid_max_wealth(spec, s, t, lo=-10.0, hi=10.0, step=0.01):
    """Brute-force hindsight optimum over a dense single-asset b grid."""
    state = z_score(spec, s, t)
    b = np.arange(lo, hi + step / 2, step)
    sigma = float(spec.sigma[0])
    exponent = ((spec.rate - 0.5 * sigma**2 * b**2) * t
                + math.sqrt(t) * float(state.z[0]) * sigma * b)
    return b, np.exp(exponent)


def test_z_is_zero_on_the_drift_path():
    assert z_score(SPEC, drift_price(SPEC, 0.5), 0.5).z[0] == pytest.approx(0.0, abs=1e-14)


def test_z_matches_direct_arithmetic():
    # (log 1.05 - 0.005) / (0.2 sqrt(0.5))
    expected = (math.log(1.05) - 0.005) / (0.2 * math.sqrt(0.5))
    state = z_score(SPEC, 105.0, 0.5)
    assert state.z[0] == pytest.approx(expected, rel=1e-14)
    assert state.z[0] == pytest.approx(0.3096, abs=5e-5)


def test_z_is_unit_normal_under_the_martingale_measure():
    spec = MarketSpec.single(mu=0.1, sigma=0.4, rate=0.02)
    paths = simulate_paths(spec, 1.5, 1, 4000, measure="risk_neutral", seed=17)
    zs = np.array([z_score(spec, p.prices[-1], 1.5).z[0] for p in paths])
    assert stats.kstest(zs, "norm").pvalue > 0.01


def test_z_rejects_time_zero():
    with pytest.raises(ValidationError):
        z_score(SPEC, 100.0, 0.0)


def test_best_rule_zero_at_the_origin():
    rule = best_rule(SPEC, drift_price(SPEC, 1.0), 1.0)
    assert rule.b[0] == pytest.approx(0.0, abs=1e-13)


def test_best_rule_beats_dense_grid():
    rng = np.random.default_rng(0)
    for _ in range(25):
        t = rng.uniform(0.2, 3.0)
        s = float(SPEC.s0[0]) * math.exp(rng.normal(0.0, 0.3))
        rule = best_rule(SPEC, s, t)
        best = wealth_of_rule(SPEC, s, t, rule)
        _, grid_vals = grid_max_wealth(SPEC, s, t)
        assert best >= grid_vals.max() * (1.0 - 1e-12)


def test_best_rule_decouples_for_identity_correlation():
    spec = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.3, 0.6), rho=0.0, rate=0.01)
    s = np.array([1.3, 0.7])
    t = 2.0
    rule = best_rule(spec, s, t)
    z = z_score(spec, s, t).z
    np.testing.assert_allclose(rule.b, z / (spec.sigma * math.sqrt(t)), rtol=1e-12)


def test_multi_asset_argmax_beats_grid():
    spec = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.5, 0.8), rho=0.35, rate=0.02)
    s = np.array([1.4, 0.8])
    t = 1.7
    best = wealth_of_rule(spec, s, t, best_rule(spec, s, t))
    z = z_score(spec, s, t).z
    cov = covariance(spec)
    grid = np.arange(-10.0, 10.0 + 0.005, 0.01)
    top = -np.inf
    for b1 in grid:  # row-chunked to keep the 2001^2 grid in memory
        quad = cov[0, 0] * b1**2 + 2 * cov[0, 1] * b1 * grid + cov[1, 1] * grid**2
        lin = z[0] * spec.sigma[0] * b1 + z[1] * spec.sigma[1] * grid
        top = max(top, np.max((spec.rate - 0.5 * quad) * t + math.sqrt(t) * lin))
    assert math.log(best) >= top - 1e-12


@given(z=st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_unlevered_rule_is_the_clamped_levered_rule(z):
    t = 0.8
    s = drift_price(SPEC, t) * math.exp(0.2 * math.sqrt(t) * z)
    levered = best_rule(SPEC, s, t, "levered").b[0]
    unlevered = best_rule(SPEC, s, t, "unlevered").b[0]
    assert unlevered == pytest.approx(min(max(levered, 0.0), 1.0), abs=1e-12)
    if 0.0 <= levered <= 1.0:
        assert unlevered == levered


def test_unlevered_rule_requires_single_asset():
    spec = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.2, 0.2), rho=0.1, rate=0.0)
    with pytest.raises(ValidationError):
        best_rule(spec, [1.0, 1.0], 1.0, "unlevered")
    with pytest.raises(ValidationError):
        intrinsic_value(spec, [1.0, 1.0], 1.0, "unlevered")


def test_rebalancing_rule_validation():
    with pytest.raises(ValidationError):
        RebalancingRule(b=[1.2], mode="unlevered")
    with pytest.raises(ValidationError):
        RebalancingRule(b=[0.2, 0.3], mode="unlevered")
    with pytest.raises(ValidationError, match="not representable in float64"):
        wealth_of_rule(MarketSpec.single(0.0, 0.1, 0.0), 1e30, 0.01, RebalancingRule([50.0]))


def test_all_cash_earns_the_riskfree_rate():
    rule = RebalancingRule(b=[0.0])
    assert wealth_of_rule(SPEC, 117.0, 2.0, rule) == pytest.approx(math.exp(0.06))


def test_buy_and_hold_recovers_the_price_ratio():
    rule = RebalancingRule(b=[1.0])
    assert wealth_of_rule(SPEC, 83.0, 1.3, rule) == pytest.approx(0.83, rel=1e-12)


def test_wealth_matches_discrete_self_financing_account():
    spec = MarketSpec.single(mu=0.08, sigma=0.25, rate=0.02)
    steps = 10_000
    t_end = 2.0
    path = simulate_paths(spec, t_end, steps, 1, seed=29)[0]
    b = 0.7
    ratios = path.prices[1:, 0] / path.prices[:-1, 0]
    growth = 1.0 + b * (ratios - 1.0) + (1.0 - b) * (math.exp(0.02 * t_end / steps) - 1.0)
    discrete = float(np.prod(growth))
    closed = wealth_of_rule(spec, path.prices[-1], t_end, RebalancingRule(b=[b]))
    assert discrete == pytest.approx(closed, rel=1e-3)


def test_intrinsic_at_origin_and_composition():
    s = drift_price(SPEC, 1.0)
    assert intrinsic_value(SPEC, s, 1.0, "levered") == pytest.approx(math.exp(0.03))
    assert intrinsic_value(SPEC, s, 1.0, "unlevered") == pytest.approx(math.exp(0.03))
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = rng.uniform(0.1, 4.0)
        s = float(SPEC.s0[0]) * math.exp(rng.normal(0.0, 0.4))
        direct = intrinsic_value(SPEC, s, t, "levered")
        via_rule = wealth_of_rule(SPEC, s, t, best_rule(SPEC, s, t))
        assert direct == pytest.approx(via_rule, rel=1e-12)


def test_unlevered_branches_agree_at_the_boundaries():
    sigma, r = 0.2, 0.03
    for t in (0.25, 1.0, 3.7):
        w = sigma * math.sqrt(t)
        # z = 0 boundary: all-cash branch vs interior formula
        s_zero = drift_price(SPEC, t)
        lo = intrinsic_value(SPEC, s_zero, t, "unlevered")
        assert lo == pytest.approx(math.exp(r * t), rel=1e-12)
        # z = sigma sqrt(t) boundary: interior formula vs buy-and-hold S/S0
        s_one = s_zero * math.exp(sigma * math.sqrt(t) * w)
        hi = intrinsic_value(SPEC, s_one, t, "unlevered")
        assert hi == pytest.approx(math.exp(r * t + 0.5 * w * w), rel=1e-12)
        assert hi == pytest.approx(s_one / 100.0, rel=1e-12)


def test_kelly_rule_reproduces_reported_markets():
    single1 = MarketSpec.single(mu=0.04 + 0.5 * 0.49, sigma=0.7, rate=0.02)
    rule, growth = kelly_rule(single1)
    assert rule.b[0] == pytest.approx(0.54, abs=0.01)
    assert growth == pytest.approx(0.0917, abs=1e-3)

    single2 = MarketSpec.single(mu=0.08 + 0.5 * 0.17**2, sigma=0.17, rate=0.02)
    rule, growth = kelly_rule(single2)
    assert rule.b[0] == pytest.approx(2.57, abs=0.01)
    assert growth == pytest.approx(0.116, abs=1e-3)

    pair = MarketSpec.pair(mu=(0.03 + 0.5 * 0.55**2, 0.08 + 0.5 * 0.49),
                           sigma=(0.55, 0.7), rho=0.2, rate=0.02)
    rule, growth = kelly_rule(pair)
    np.testing.assert_allclose(rule.b, [0.39, 0.56], atol=0.01)
    assert growth == pytest.approx(0.137, abs=1e-3)


def test_state_functions_never_read_the_drift():
    base = MarketSpec.pair(mu=(0.05, 0.1), sigma=(0.3, 0.5), rho=0.25, rate=0.02)
    bumped = MarketSpec.pair(mu=(0.95, -0.4), sigma=(0.3, 0.5), rho=0.25, rate=0.02)
    s = np.array([1.2, 0.9])
    t = 1.4
    assert np.array_equal(z_score(base, s, t).z, z_score(bumped, s, t).z)
    assert np.array_equal(best_rule(base, s, t).b, best_rule(bumped, s, t).b)
    rule = RebalancingRule(b=[0.4, -0.3])
    assert wealth_of_rule(base, s, t, rule) == wealth_of_rule(bumped, s, t, rule)
    assert intrinsic_value(base, s, t) == intrinsic_value(bumped, s, t)


def test_best_rule_equals_drift_estimator():
    # b(S, t) = (mu_hat - r) / sigma^2 with mu_hat = log(S/S0)/t + sigma^2/2
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.uniform(0.1, 5.0)
        s = float(SPEC.s0[0]) * math.exp(rng.normal(0.0, 0.5))
        mu_hat = math.log(s / 100.0) / t + 0.5 * 0.2**2
        expected = (mu_hat - 0.03) / 0.2**2
        assert best_rule(SPEC, s, t).b[0] == pytest.approx(expected, rel=1e-12)


def test_best_rule_converges_to_kelly_in_mean_square():
    spec = MarketSpec.single(mu=0.09445, sigma=0.17, rate=0.02)
    target = kelly_rule(spec)[0].b[0]
    paths = simulate_paths(spec, 200.0, 20, 200, measure="physical", seed=3)
    idx_early = int(np.searchsorted(paths[0].times, 10.0))

    def mse(idx):
        errs = [(best_rule(spec, p.prices[idx], p.times[idx]).b[0] - target) ** 2
                for p in paths]
        return float(np.mean(errs))

    assert mse(-1) < mse(idx_early)

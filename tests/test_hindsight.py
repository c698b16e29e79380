"""Hindsight rules, realized wealth, intrinsic value, and the Kelly benchmark."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.linalg.lapack
from scipy import stats
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs

from hindsight_options import (
    MarketSpec,
    PricePath,
    RebalancingRule,
    best_rule,
    hedge_path,
    intrinsic_value,
    kelly_rule,
    log_intrinsic_value,
    log_price_unlevered,
    mc_price,
    simulate_paths,
    unlevered_terms,
    wealth_of_rule,
    z_score,
)
from hindsight_options import hindsight
from hindsight_options.errors import ValidationError
from hindsight_options.hindsight import corr_quad, corr_solve

SPEC = MarketSpec.single(mu=0.0, sigma=0.2, rate=0.03, s0=100.0)


def drift_price(spec, t):
    """The z = 0 price S0 * exp((r - sigma^2/2) t)."""
    return float(spec.s0[0]) * math.exp((spec.rate - 0.5 * spec.sigma[0] ** 2) * t)


def grid_max_wealth(spec, s, t, lo=-10.0, hi=10.0, step=0.01):
    """Brute-force hindsight optimum over a dense single-asset b grid."""
    z = z_score(spec, s, t)
    b = np.arange(lo, hi + step / 2, step)
    sigma = float(spec.sigma[0])
    exponent = ((spec.rate - 0.5 * sigma**2 * b**2) * t
                + math.sqrt(t) * float(z[0]) * sigma * b)
    return b, np.exp(exponent)


def test_z_is_zero_on_the_drift_path():
    assert z_score(SPEC, drift_price(SPEC, 0.5), 0.5)[0] == pytest.approx(0.0, abs=1e-14)


def test_z_matches_direct_arithmetic():
    # (log 1.05 - 0.005) / (0.2 sqrt(0.5))
    expected = (math.log(1.05) - 0.005) / (0.2 * math.sqrt(0.5))
    z = z_score(SPEC, 105.0, 0.5)
    assert z.shape == (1,)
    assert z[0] == pytest.approx(expected, rel=1e-14)
    assert z[0] == pytest.approx(0.3096, abs=5e-5)


def test_z_is_unit_normal_under_the_martingale_measure():
    spec = MarketSpec.single(mu=0.1, sigma=0.4, rate=0.02)
    paths = simulate_paths(spec, 1.5, 1, 4000, measure="risk_neutral", seed=17)
    zs = np.array([z_score(spec, p.prices[-1], 1.5)[0] for p in paths])
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
    z = z_score(spec, s, t)
    np.testing.assert_allclose(rule.b, z / (spec.sigma * math.sqrt(t)), rtol=1e-12)


def test_multi_asset_argmax_beats_grid():
    spec = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.5, 0.8), rho=0.35, rate=0.02)
    s = np.array([1.4, 0.8])
    t = 1.7
    best = wealth_of_rule(spec, s, t, best_rule(spec, s, t))
    z = z_score(spec, s, t)
    cov = spec.sigma[:, None] * spec.corr * spec.sigma
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
    with pytest.raises(ValidationError, match="^rule has 2 fractions for 1 assets$"):
        wealth_of_rule(SPEC, 105.0, 1.0, RebalancingRule([0.2, 0.3]))
    with pytest.raises(ValidationError, match=r"^expected 1 prices, got shape \(2,\)$"):
        z_score(SPEC, [105.0, 95.0], 1.0)


@pytest.mark.filterwarnings("error")
def test_a_rule_refuses_a_nonfinite_fraction():
    for b, mode in (([math.nan], "levered"), ([math.inf], "levered"),
                    ([0.5, -math.inf], "levered"), ([math.nan], "unlevered")):
        with pytest.raises(ValidationError, match="^fractions must be finite$"):
            RebalancingRule(b=b, mode=mode)


@pytest.mark.filterwarnings("error")
def test_wealth_of_rule_scales_by_t_before_the_quadratic_overflows():
    # b' Sigma b = 1e310 overflows float64, but (b' Sigma b) t / 2 = 5 at t = 1e-309
    spec = MarketSpec.single(mu=0.0, sigma=1.0, rate=0.0)
    wealth = wealth_of_rule(spec, 1.0, 1e-309, RebalancingRule([1e155]))
    assert wealth == pytest.approx(math.exp(-5.0), rel=1e-12)
    # u = sqrt(t) M b overflows itself: u' (z - R u / 2) is -inf, so the wealth is 0.0
    wide = MarketSpec.single(mu=0.0, sigma=1e154, rate=0.0)
    for b in (1e155, -1e155):
        assert wealth_of_rule(wide, 1.0, 1.0, RebalancingRule([b])) == 0.0
    # u = 1e300 is finite and u' (z - R u / 2) ~ -5e599 overflows to -inf: 0.0
    wealth = wealth_of_rule(MarketSpec.single(0.0, 1e100, 0.0), 1.0, 1.0, RebalancingRule([1e200]))
    assert wealth == 0.0
    # u = (inf, -inf) at rho = 0 makes R u hold 0 * inf = NaN; the exact log wealth
    # is -inf, taken from the scaled v = (1, -1) and m = inf, so the wealth is 0.0
    pair = MarketSpec.pair(mu=(0.0, 0.0), sigma=(1e154, 1e154), rho=0.0, rate=0.0)
    assert wealth_of_rule(pair, [1.0, 1.0], 1.0, RebalancingRule([1e155, -1e155])) == 0.0


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
    assert np.array_equal(z_score(base, s, t), z_score(bumped, s, t))
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


def lapack_solve(a, b, lower):
    """The reference solve: scipy's ``solve_triangular``, with a lone column doubled."""
    if b.shape[1] == 1:
        return solve_triangular(a, np.repeat(b, 2, axis=1), lower=lower)[:, :1]
    return solve_triangular(a, b, lower=lower)


def whitened_and_fractions(spec, s, t):
    z = hindsight._z(spec, s, t)
    w = hindsight._whiten(spec, z)
    return w, hindsight._fractions_of(spec, z, w, t)


def one_asset_states(rng, count):
    """(spec, s, t) for single states and batches of five over wide sigma, s0 and moves."""
    for i in range(count):
        spec = MarketSpec.single(mu=0.0, sigma=math.exp(rng.uniform(-5, 1)),
                                 rate=rng.uniform(-0.1, 0.1), s0=math.exp(rng.uniform(-5, 5)))
        shape = (1,) if i % 2 else (5, 1)
        t = rng.uniform(0.01, 5.0, size=shape[:-1])
        yield spec, float(spec.s0[0]) * np.exp(rng.normal(0.0, 2.0, size=shape)), t


def test_unit_factor_skips_lapack_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(16)
    states = list(one_asset_states(rng, 300))

    def no_lapack(*args, **kwargs):
        raise AssertionError("the factor [[1.0]] went through LAPACK")

    # _trtrs reads both off the scipy modules at each call
    monkeypatch.setattr(scipy.linalg.lapack, "dtrtrs", no_lapack)
    monkeypatch.setattr(scipy.linalg, "solve_triangular", no_lapack)
    fast = [whitened_and_fractions(*state) for state in states]
    monkeypatch.undo()
    monkeypatch.setattr(hindsight, "_trtrs", lapack_solve)
    for state, got in zip(states, fast):
        for g, w in zip(got, whitened_and_fractions(*state)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_unit_factor_solve_copies_its_input():
    spec = MarketSpec.single(mu=0.0, sigma=0.2, rate=0.0)
    z = np.array([0.3])
    x = corr_solve(spec, z)
    assert x.tolist() == [0.3] and not np.shares_memory(x, z)
    x[0] = 1.0
    assert z[0] == 0.3
    # a non-finite right-hand side is refused before the solve
    with pytest.raises(ValidationError, match="^z must be finite$"):
        corr_solve(spec, [math.inf])


def test_a_near_unit_factor_still_goes_through_lapack(monkeypatch):
    # validate_market accepts a unit diagonal within 1e-12, so the factor is sqrt(1 + 5e-13)
    spec = MarketSpec(n=1, mu=[0.0], sigma=[0.3], corr=[[1.0 + 5e-13]], rate=0.01, s0=[2.0])
    assert spec.lower[0, 0] != 1.0
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dtrtrs(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dtrtrs", counted)
    s, t, z = np.array([[2.5], [1.2], [3.0]]), np.array([0.5, 1.0, 2.0]), np.array([0.7])
    got = (*whitened_and_fractions(spec, s, t), corr_solve(spec, z))
    assert len(calls) == 4
    monkeypatch.setattr(hindsight, "_trtrs", lapack_solve)
    for g, w in zip(got, (*whitened_and_fractions(spec, s, t), corr_solve(spec, z))):
        assert g.tobytes() == w.tobytes()


def random_spec(rng, n):
    """A spec with a random accepted correlation of n assets."""
    a = rng.normal(size=(n, n + 2))
    cov = a @ a.T
    d = np.sqrt(np.diag(cov))
    corr = cov / d[:, None] / d[None, :]
    np.fill_diagonal(corr, 1.0)
    return MarketSpec(n=n, mu=np.zeros(n), sigma=np.full(n, 0.2), corr=(corr + corr.T) / 2,
                      rate=0.0, s0=np.ones(n))


def test_solve_is_scipys_solve_triangular_bit_for_bit():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        spec = random_spec(rng, n)
        for a, lower in ((spec.lower, True), (spec.lower.T, False)):
            # one column and many; C-ordered and, as the kernels pass z, F-ordered
            for b in (rng.normal(size=(n, 1)), rng.normal(size=(n, 7)),
                      rng.normal(size=(1, n)).T, rng.normal(size=(7, n)).T):
                b *= 10.0 ** rng.uniform(-5, 5)
                before = b.copy()
                got = hindsight._trtrs(a, b, lower)
                want = lapack_solve(a, b, lower)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert b.tobytes() == before.tobytes()
        # the public solves refuse a non-finite z themselves
        for bad in (math.inf, -math.inf, math.nan):
            z = rng.normal(size=n)
            z[n - 1] = bad
            for solve in (corr_solve, corr_quad):
                with pytest.raises(ValidationError, match="^z must be finite$"):
                    solve(spec, z)


def test_corr_quad_is_z_corr_inverse_z():
    spec = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.3, 0.5), rho=0.6, rate=0.0)
    z = np.array([1.2, -0.7])
    want = float(z @ np.linalg.solve(spec.corr, z))
    assert corr_quad(spec, z) == pytest.approx(want, rel=1e-13)
    assert corr_quad(spec, z) == pytest.approx(float(z @ corr_solve(spec, z)), rel=1e-13)


@pytest.mark.filterwarnings("error")
def test_a_tiny_volatility_raises_without_a_warning():
    # z ~ 7e299 at sigma = 1e-300: b(S, t) and z' R^{-1} z overflow
    spec = MarketSpec.single(mu=0.0, sigma=1e-300, rate=0.0, s0=1.0)
    with pytest.raises(ValidationError, match="log_price_levered"):
        best_rule(spec, 2.0, 1.0)
    with pytest.raises(ValidationError, match="log_price_levered"):
        intrinsic_value(spec, 2.0, 1.0)
    # the clamped rule is finite and keeps its value
    assert best_rule(spec, 2.0, 1.0, "unlevered").b.tolist() == [1.0]
    # the excess return per unit volatility is 1e200: b* and its growth rate overflow
    with pytest.raises(ValidationError, match="Kelly rule is not representable"):
        kelly_rule(MarketSpec.single(mu=1.0, sigma=1e-200, rate=0.0))
    # sigma sqrt(t) underflows to 0 at t = 1e-300: z is refused
    for call in (z_score, best_rule, intrinsic_value):
        with pytest.raises(ValidationError, match="underflows to 0"):
            call(spec, 2.0, 1e-300)
    # the drift product (r - sigma^2/2) t overflows: z is refused, not handed to a solve
    with pytest.raises(ValidationError, match="^z-score is not a finite float64"):
        best_rule(MarketSpec.single(0.0, 1.0, -1e300), 1.0, 1e10)
    # log 2 / (sigma sqrt(2)) overflows at a subnormal sigma: z is refused, not taken as inf
    with pytest.raises(ValidationError, match="^z-score is not a finite float64"):
        intrinsic_value(MarketSpec.single(0.0, 1e-320, 0.0), 2.0, 2.0, "unlevered")
    # z ~ -3e300 is in the cash region, where its square is never formed; e^{rt} overflows
    with pytest.raises(ValidationError, match="use log_intrinsic_value$"):
        intrinsic_value(MarketSpec.single(0.0, 1.0, 1e300), 1.0, 10.0, "unlevered")


def test_every_mode_taking_api_refuses_a_bad_mode_with_one_message():
    pair = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.2, 0.3), rho=0.1, rate=0.0)
    s = [1.1, 0.9]
    path = PricePath(times=np.array([0.0, 1.0, 2.0]), prices=np.array([[1.0, 1.0], s, s]))
    calls = {
        "best_rule": lambda spec, mode: best_rule(spec, s, 1.0, mode),
        "log_intrinsic_value": lambda spec, mode: log_intrinsic_value(spec, s, 1.0, mode),
        "mc_price": lambda spec, mode: mc_price(spec, s, 1.0, 2.0, mode, n_paths=100),
        "hedge_path": lambda spec, mode: hedge_path(spec, path, 1.0, 2.0, mode),
    }
    with pytest.raises(ValidationError, match="^unknown mode 'covered'$"):
        RebalancingRule(b=[0.5], mode="covered")
    for name, call in calls.items():
        with pytest.raises(ValidationError, match="^unknown mode 'covered'$"):
            call(pair, "covered")
        with pytest.raises(ValidationError, match="^unlevered mode is defined for one asset$"):
            call(pair, "unlevered")
    for unlevered in (unlevered_terms, log_price_unlevered):
        with pytest.raises(ValidationError, match="^unlevered mode is defined for one asset$"):
            unlevered(pair, s, 1.0, 2.0)

"""Hedge ledgers, growth experiments, and the discrete backtester."""

import datetime as dt
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import ndtr
from scipy.stats import chi2

from hindsight_options import (
    MarketSpec,
    PricePath,
    SimulationConfig,
    best_rule,
    discrete_backtest,
    hedge_path,
    intrinsic_value,
    load_price_table,
    log_intrinsic_value,
    log_price_levered,
    multi_delta,
    price_levered,
    price_unlevered,
    run_growth_simulation,
    scenario_config,
    scenario_spec,
    simulate_paths,
)
from hindsight_options.cli import _ledger_csv
from hindsight_options.replication import PriceTable
from hindsight_options.errors import ValidationError
from hindsight_options import hindsight, market, replication
from hindsight_options.hindsight import _fractions, _log_levered
from hindsight_options.market import _STREAM_PATHS, cholesky_with_tolerance
from unlevered_reference import mp_unlevered_fraction

SPEC = MarketSpec.single(mu=0.07, sigma=0.3, rate=0.02, s0=1.0)
# Beyond this many predicted standard deviations a hedge's capture error is wrong.
HEDGE_CAPTURE_SIGMAS = 6.0


def capture_target(spec, path, i0, t0, T, mode="levered"):
    """Deterministic fraction V_T*/C(S_{t0}, t0) the hedge should deliver."""
    log_v = log_intrinsic_value(spec, path.prices[-1], T, mode)
    if mode == "levered":
        return math.exp(log_v - log_price_levered(spec, path.prices[i0], t0, T))
    return math.exp(log_v) / price_unlevered(spec, path.prices[i0], t0, T).price


def test_ledger_is_self_financing_to_machine_precision():
    path = simulate_paths(SPEC, 2.0, 500, 1, seed=41)[0]
    ledger = hedge_path(SPEC, path, 1.0, 2.0)
    i0 = np.searchsorted(path.times, 1.0)
    prices = path.prices[i0:]
    dt = np.diff(ledger.times)
    for k in range(len(ledger.times) - 1):
        rolled = (ledger.shares[k] @ prices[k + 1]
                  + ledger.cash[k] * math.exp(SPEC.rate * dt[k]))
        assert rolled == pytest.approx(ledger.wealth[k + 1], rel=1e-10)
        held = ledger.fractions[k] * ledger.wealth[k]
        np.testing.assert_allclose(ledger.shares[k] * prices[k], held, rtol=1e-10)
    assert ledger.cash[-1] == ledger.wealth[-1]
    assert np.all(ledger.shares[-1] == 0.0)


def test_levered_fractions_equal_the_drift_estimator():
    path = simulate_paths(SPEC, 2.0, 100, 1, seed=43)[0]
    ledger = hedge_path(SPEC, path, 0.5, 2.0)
    i0 = int(np.searchsorted(path.times, 0.5))
    for k in (0, 10, 60):
        t = ledger.times[k]
        s = path.prices[i0 + k, 0]
        mu_hat = math.log(s / 1.0) / t + 0.5 * 0.3**2
        assert ledger.fractions[k, 0] == pytest.approx((mu_hat - 0.02) / 0.09, rel=1e-10)


def test_smooth_path_hedge_is_deterministic():
    # No-noise price paths make the hedge deterministic.  On the z = 0 path
    # the rule holds cash; on the exactly-at-the-rate path it holds b = 1/2.
    # Either way the account compounds at the riskless rate in the sigma -> 0
    # limit.  (Zero quadratic variation also means the option's decaying
    # universality factor cannot be captured on such paths.)
    sigma, r, t0, T = 1e-4, 0.04, 1.0, 2.0
    spec = MarketSpec.single(mu=r, sigma=sigma, rate=r, s0=1.0)
    times = np.linspace(0.0, T, 2001)

    drift_path = PricePath(times=times, prices=np.exp((r - 0.5 * sigma**2) * times)[:, None])
    ledger = hedge_path(spec, drift_path, t0, T)
    np.testing.assert_allclose(ledger.fractions[:-1, 0], 0.0, atol=1e-6)
    assert ledger.wealth[-1] == pytest.approx(math.exp(r * (T - t0)), rel=1e-9)

    # stock and bond legs both pay e^{r dt} - 1 here, so any blend earns r
    rate_path = PricePath(times=times, prices=np.exp(r * times)[:, None])
    ledger = hedge_path(spec, rate_path, t0, T)
    np.testing.assert_allclose(ledger.fractions[:-1, 0], 0.5, atol=1e-6)
    assert ledger.wealth[-1] == pytest.approx(math.exp(r * (T - t0)), rel=1e-12)


def test_hedge_error_shrinks_with_rebalancing_frequency():
    n_paths = 100
    paths = simulate_paths(SPEC, 3.0, 12_000, n_paths, seed=47)
    rms = []
    for stride in (16, 4, 1):
        errs = []
        for path in paths:
            sub = PricePath(times=path.times[::stride], prices=path.prices[::stride])
            i0 = int(np.searchsorted(sub.times, 2.0))
            ledger = hedge_path(SPEC, sub, 2.0, 3.0)
            target = capture_target(SPEC, sub, i0, 2.0, 3.0)
            errs.append(ledger.wealth[-1] / target - 1.0)
        rms.append(float(np.sqrt(np.mean(np.square(errs)))))
    assert rms[0] > rms[1] > rms[2]


def test_capture_is_deterministic_for_a_fixed_path():
    # fine grid: terminal wealth / V_T* ~ 1 / C(S_{t0}, t0) whatever S_T is
    paths = simulate_paths(SPEC, 3.0, 30_000, 3, seed=53)
    for path in paths:
        i0 = int(np.searchsorted(path.times, 2.0))
        ledger = hedge_path(SPEC, path, 2.0, 3.0)
        v_star = math.exp(log_intrinsic_value(SPEC, path.prices[-1], 3.0))
        inverse_cost = math.exp(-log_price_levered(SPEC, path.prices[i0], 2.0, 3.0))
        assert ledger.wealth[-1] / v_star == pytest.approx(inverse_cost, rel=5e-3)


def test_realized_excess_growth_respects_the_bound():
    paths = simulate_paths(SPEC, 3.0, 20_000, 5, seed=59)
    for path in paths:
        i0 = int(np.searchsorted(path.times, 1.5))
        ledger = hedge_path(SPEC, path, 1.5, 3.0)
        v_star = math.exp(log_intrinsic_value(SPEC, path.prices[-1], 3.0))
        excess = (math.log(v_star) - math.log(ledger.wealth[-1])) / (3.0 - 1.5)
        bound = log_price_levered(SPEC, path.prices[i0], 1.5, 3.0) / (3.0 - 1.5)
        # equality holds in the continuous limit; 2pp covers discrete hedge error
        assert excess <= bound + 0.02


def predicted_hedge_spread(spec, times, prices):
    """Predicted standard deviation of a discrete levered hedge's relative capture error.

    Over a step dt the account and the option differ by (dt/2) e' G e less its
    mean, e ~ N(0, R) the step's shocks, with

        G = R^-1 / t + M (b b' - diag b) M,   M = diag(sigma), b = b(S, t),

    so the step's error variance is (dt^2 / 2) tr((G R)^2); the prediction
    sums it over the rebalance times.  With one asset G = (z^2 - w z + 1) / t,
    w = sigma sqrt(t).
    """
    sigma, corr = spec.sigma, spec.corr
    inv_corr = np.linalg.inv(corr)
    t, dt = times[:-1], np.diff(times)
    root_t = np.sqrt(t)[:, None]
    z = (np.log(prices[:-1] / spec.s0) - (spec.rate - 0.5 * sigma**2) * t[:, None]) / (
        sigma * root_t)
    b = z @ inv_corr / sigma / root_t
    mb = sigma * b
    g = inv_corr / t[:, None, None] + mb[:, :, None] * mb[:, None, :]
    diag = np.arange(spec.n)
    g[:, diag, diag] -= sigma * mb
    gr = g @ corr
    return math.sqrt(0.5 * float(np.sum(dt**2 * np.einsum("kij,kji->k", gr, gr))))


def test_two_asset_hedge_captures_the_price_ratio():
    spec = MarketSpec.pair(mu=(0.06, 0.1), sigma=(0.3, 0.5), rho=0.25,
                           rate=0.02, s0=(1.0, 1.0))
    paths = simulate_paths(spec, 3.0, 15_000, 10, seed=71)
    scores = []
    for path in paths:
        i0 = int(np.searchsorted(path.times, 2.0))
        ledger = hedge_path(spec, path, 2.0, 3.0)
        target = capture_target(spec, path, i0, 2.0, 3.0)
        spread = predicted_hedge_spread(spec, path.times[i0:], path.prices[i0:])
        scores.append((ledger.wealth[-1] / target - 1.0) / spread)
    # each capture error sums many small rebalance errors, so its score is
    # about a unit normal and the sum of the squared scores about chi^2_10
    scores = np.array(scores)
    assert np.all(np.abs(scores) < HEDGE_CAPTURE_SIGMAS)
    assert float(np.sum(scores**2)) < chi2.ppf(0.999, len(scores))


def test_unlevered_hedge_tracks_its_price():
    spec = MarketSpec.single(mu=0.05, sigma=0.3, rate=0.02, s0=1.0)
    paths = simulate_paths(spec, 2.0, 4000, 25, seed=55)
    errs = []
    for path in paths:
        i0 = int(np.searchsorted(path.times, 1.0))
        ledger = hedge_path(spec, path, 1.0, 2.0, mode="unlevered")
        target = capture_target(spec, path, i0, 1.0, 2.0, mode="unlevered")
        errs.append(ledger.wealth[-1] / target - 1.0)
    assert float(np.mean(np.abs(errs))) < 0.01


def reference_unlevered_fractions(spec, times, prices, T):
    """delta * S / C by central differences of a standalone three-term price."""
    sigma, r, s0 = float(spec.sigma[0]), spec.rate, float(spec.s0[0])

    def price(t, s):
        z = (np.log(s / s0) - (r - 0.5 * sigma * sigma) * t) / (sigma * np.sqrt(t))
        a = -z * np.sqrt(t / (T - t))
        b = a + sigma * T / np.sqrt(T - t)
        ratio = np.sqrt(T / t)
        log_c = 0.5 * np.log(T / t) + r * t + 0.5 * z * z
        term1 = np.exp(r * t) * ndtr(a)
        term2 = np.exp(log_c) * (ndtr(a * ratio + sigma * np.sqrt(t * T / (T - t)))
                                 - ndtr(a * ratio))
        term3 = (s / s0) * ndtr(sigma * np.sqrt(T - t) - b)
        return term1 + term2 + term3

    fractions = np.zeros((len(times), 1))
    live = times < T
    t, s = times[live], prices[live, 0]
    h = 1e-5 * s
    delta = (price(t, s + h) - price(t, s - h)) / (2.0 * h)
    fractions[live, 0] = delta * s / price(t, s)
    return fractions


@pytest.mark.parametrize("spec", [SPEC, MarketSpec.single(mu=0.1, sigma=0.7, rate=0.04, s0=30.0)])
def test_unlevered_hedge_fractions_equal_the_reference_formula(spec):
    path = simulate_paths(spec, 3.0, 600, 1, seed=29)[0]
    ledger = hedge_path(spec, path, 0.5, 3.0, mode="unlevered")
    # central differences carry a truncation error of ~h^2 = 1e-10, relative
    want = reference_unlevered_fractions(spec, ledger.times, path.prices[100:], 3.0)
    np.testing.assert_allclose(ledger.fractions, want, rtol=1e-8, atol=0.0)
    sigma, r, s0 = float(spec.sigma[0]), spec.rate, float(spec.s0[0])
    for i in range(0, len(ledger.times) - 1, 10):
        exact = mp_unlevered_fraction(sigma, r, s0, path.prices[100 + i, 0], ledger.times[i], 3.0)
        assert abs(ledger.fractions[i, 0] - exact) <= 1e-10


def test_unlevered_hedge_holds_no_fraction_too_small_for_its_cash():
    # Deep in the cash region the analytic fractions here are -4e-323 and
    # 1e-323: shares that small are subnormal, and wealth * f / shares no
    # longer gives the price back.  The ledger holds none instead.
    spec = MarketSpec.single(mu=0.05, sigma=0.3, rate=0.03)
    path = PricePath(times=[0.0, 1.9, 1.99, 2.0], prices=[1.0, 0.02524065, 0.30575343, 0.3])
    ledger = hedge_path(spec, path, 1.9, 2.0, mode="unlevered")
    np.testing.assert_array_equal(ledger.fractions, 0.0)
    np.testing.assert_array_equal(ledger.shares, 0.0)
    np.testing.assert_array_equal(ledger.cash, ledger.wealth)


def test_one_factorization_per_spec(monkeypatch):
    calls = []

    def counting_cholesky(a):
        calls.append(np.array(a))
        return cholesky_with_tolerance(a)

    monkeypatch.setattr(market, "cholesky_with_tolerance", counting_cholesky)
    spec = MarketSpec.pair(mu=(0.1, 0.12), sigma=(0.3, 0.5), rho=0.2, rate=0.02)
    s = np.array([1.2, 0.9])
    price_levered(spec, s, 1.0, 2.0)
    multi_delta(spec, s, 1.0, 2.0)
    best_rule(spec, s, 1.0)
    path = simulate_paths(spec, 2.0, 40, 1, seed=3)[0]
    hedge_path(spec, path, 1.0, 2.0)
    run_growth_simulation(SimulationConfig(spec=spec, T=10.0, warmup=2.0,
                                           steps_per_year=4, n_paths=3, seed=1))
    assert len(calls) == 1


def test_hedge_path_starts_at_the_nearest_grid_time():
    # a grid finer than the 1e-9 tolerance: every time matches its neighbours too
    fine = PricePath(times=[0.0, 4e-10, 8e-10, 1.2e-9], prices=[1.0, 1.0001, 0.9999, 1.0002])
    ledger = hedge_path(MarketSpec.single(0.05, 0.2, 0.01), fine, 8e-10, 1.2e-9)
    assert ledger.times.tolist() == [8e-10, 1.2e-9]
    # a start at t = 1.06e-306 is not t = 0, and the unlevered hedge prices it
    spec = MarketSpec.single(1.4512927680034244e-303, 2.0, 4.0345364617185785e-40,
                             4.978835192118902e-245)
    s, t, T = 9.504095921221597e-256, 1.0597646832731927e-306, 1.2717176199278313e-306
    tiny = PricePath(times=[0.0, t, T], prices=[float(spec.s0[0]), s, s])
    ledger = hedge_path(spec, tiny, t, T, mode="unlevered")
    assert ledger.times.tolist() == [t, T]
    assert ledger.wealth.tolist() == [1.0, 1.0]


def test_hedge_path_domain_errors():
    path = simulate_paths(SPEC, 2.0, 100, 1, seed=1)[0]
    with pytest.raises(ValidationError):
        hedge_path(SPEC, path, 0.0, 2.0)
    with pytest.raises(ValidationError):
        hedge_path(SPEC, path, 1.0, 3.0)  # path stops at 2
    with pytest.raises(ValidationError):
        hedge_path(SPEC, path, 1.0005, 2.0)  # off-grid start
    with pytest.raises(ValidationError):
        hedge_path(SPEC, path, 1.0, 2.0, mode="covered")
    for t_start, T in ((2.0, 1.0), (1.0, 1.0)):
        with pytest.raises(ValidationError, match="^need t_start < T$"):
            hedge_path(SPEC, path, t_start, T)
    # z / (sigma sqrt(t)) overflows: the first trading fraction is not a float64
    flat = PricePath(times=np.linspace(0.0, 2.0, 5), prices=np.array([[1.0], [1.5], [1.5],
                                                                       [1.5], [1.5]]))
    with pytest.raises(ValidationError, match="log_price_levered"):
        hedge_path(MarketSpec.single(mu=0.0, sigma=1e-160, rate=0.0), flat, 0.5, 2.0)
    # z ~ 3e299: the unlevered price is S/S0 there, but the hedge fraction reads C, which overflows
    with pytest.raises(ValidationError, match="not even log_price_levered"):
        hedge_path(MarketSpec.single(mu=0.0, sigma=1e-300, rate=0.0), flat, 0.5, 2.0,
                   mode="unlevered")
    # a price rising from 1 to e^40: the levered factor overflows, yet the
    # unlevered hedge holds the stock from t = 1 and tracks it
    times = np.linspace(0.0, 2.0, 201)
    deep = PricePath(times=times, prices=np.exp(20.0 * times))
    ledger = hedge_path(MarketSpec.single(0.0, 0.1, 0.0), deep, 1.0, 2.0, mode="unlevered")
    np.testing.assert_array_equal(ledger.fractions[:-1], 1.0)
    assert ledger.wealth[-1] == pytest.approx(math.exp(20.0), rel=1e-12)
    # e^{r dt} - 1 overflows: the bond growth, and so the wealth, is not a float64
    huge_rate = MarketSpec.single(mu=0.0, sigma=0.2, rate=1e300)
    path = simulate_paths(huge_rate, 1.0, 4, 1, seed=1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="hedge wealth"):
            hedge_path(huge_rate, path, 0.5, 1.0)
    # fraction * wealth / s overflows at s = 9.5e-256, though fraction and wealth are finite
    spec = MarketSpec.single(1.4512927680034244e-303, 2.0, 4.0345364617185785e-40,
                             4.978835192118902e-245)
    s, t, T = 9.504095921221597e-256, 1.0597646832731927e-306, 1.2717176199278313e-306
    tiny = PricePath(times=[0.0, t, T], prices=[float(spec.s0[0]), s, s])
    with pytest.raises(ValidationError, match="^hedge share count is not representable"):
        hedge_path(spec, tiny, t, T)


def test_growth_simulation_matches_scenario_kellys():
    for name, b_star, rate in (("sim1", [0.54], 0.0917),
                               ("sim2", [2.57], 0.116),
                               ("sim3", [0.39, 0.56], 0.137)):
        config = scenario_config(name, T=50.0, n_paths=4, seed=1)
        result = run_growth_simulation(config)
        np.testing.assert_allclose(result.kelly_fractions, b_star, atol=0.01)
        assert result.kelly_growth_rate == pytest.approx(rate, abs=1e-3)


def growth_accounts(spec, path, warmup, T):
    """The growth account along a path: the basket until the warmup, then W_w C / C_w."""
    i_buy = int(np.searchsorted(path.times, warmup))
    times, prices = path.times, path.prices
    basket_shares = (1.0 / spec.n) / spec.s0
    wealth = np.empty(len(times))
    wealth[:i_buy + 1] = prices[:i_buy + 1] @ basket_shares
    log_c = _log_levered(spec, prices[i_buy:], times[i_buy:], T)
    wealth[i_buy:] = wealth[i_buy] * np.exp(log_c - log_c[0])
    return i_buy, wealth


def test_growth_simulation_wealth_tracks_stock_then_price():
    # the tracking formula the growth run applies at its two points, applied
    # along whole simulate_paths paths: the stock, then W_w C(S_t, t) / C(S_w, w)
    spec = scenario_spec("sim1")
    for path in simulate_paths(spec, 30.0, 360, 2, measure="physical", seed=5):
        i5, wealth = growth_accounts(spec, path, 5.0, 30.0)
        np.testing.assert_allclose(wealth[:i5 + 1], path.prices[:i5 + 1, 0], rtol=1e-12)
        for k in (i5 + 120, len(wealth) - 1):
            expected = path.prices[i5, 0] * math.exp(
                log_price_levered(spec, path.prices[k], path.times[k], 30.0)
                - log_price_levered(spec, path.prices[i5], 5.0, 30.0))
            assert wealth[k] == pytest.approx(expected, rel=1e-12)


def test_growth_simulation_agrees_with_an_explicit_hedge():
    # price tracking and a self-financing delta hedge are the same account up
    # to discretization error, which accumulates in the log over the horizon
    spec = scenario_spec("sim2")
    for path in simulate_paths(spec, 10.0, 3840, 3, measure="physical", seed=9):
        i5, wealth = growth_accounts(spec, path, 5.0, 10.0)
        hedged = hedge_path(spec, path, 5.0, 10.0)
        assert abs(math.log(hedged.wealth[-1] / (wealth[-1] / wealth[i5]))) < 0.2


def reference_growth_accounts(config):
    """Each path's account at the warmup and at T, path by path.

    Path i draws row i % 1024 of the stream (seed, i // 1024): two normals per
    asset, the exact lognormal increments over [0, t_w] and [t_w, T], with t_w
    the warmup.
    """
    spec = config.spec
    t = np.array([config.warmup, config.T])
    dt = np.diff(t, prepend=0.0)[:, None]
    drift = (spec.mu - 0.5 * spec.sigma**2) * dt
    vol = spec.sigma * np.sqrt(dt)
    lower = cholesky_with_tolerance(spec.corr)
    basket_shares = (1.0 / spec.n) / spec.s0
    accounts = np.empty((config.n_paths, 2))
    for i in range(config.n_paths):
        chunk, row = divmod(i, _STREAM_PATHS)
        if row == 0:
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, chunk)))
            draws = rng.standard_normal((min(_STREAM_PATHS, config.n_paths - i), 2, spec.n))
        s = np.exp(np.log(spec.s0) + np.cumsum(drift + vol * (draws[row] @ lower.T), axis=0))
        z = ((np.log(s / spec.s0) - (spec.rate - 0.5 * spec.sigma**2) * t[:, None])
             / (spec.sigma * np.sqrt(t)[:, None]))
        w = solve_triangular(lower, z.T, lower=True)
        log_c = 0.5 * spec.n * np.log(config.T / t) + spec.rate * t + 0.5 * np.sum(w * w, axis=0)
        accounts[i, 0] = (s @ basket_shares)[0]  # a mat-vec, as the run's basket is
        accounts[i, 1] = accounts[i, 0] * np.exp(log_c[1] - log_c[0])
    return accounts


@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3"])
def test_growth_simulation_equals_the_per_path_loop(name, monkeypatch):
    # Each path is priced on its own: blocks of 400 paths (the last one
    # straddling the stream boundary at path 1024) give the bits of the
    # per-path loop, and path i does not depend on n_paths or on its block.
    config = scenario_config(name, T=30.0, n_paths=1100, seed=23)
    whole = run_growth_simulation(scenario_config(name, T=30.0, n_paths=3000, seed=23))
    monkeypatch.setattr(market, "_BLOCK_PATH_STEPS", 2 * 400)
    result = run_growth_simulation(config)
    want = reference_growth_accounts(config)[:, 1]
    np.testing.assert_array_equal(result.terminal_wealth, want)
    np.testing.assert_array_equal(result.cagr, np.log(want) / 30.0)
    np.testing.assert_array_equal(whole.terminal_wealth[:1100], result.terminal_wealth)
    np.testing.assert_array_equal(whole.cagr[:1100], result.cagr)


THREE_ASSETS = MarketSpec(n=3, mu=[0.05, 0.08, 0.11], sigma=[0.3, 0.45, 0.6],
                          corr=[[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]],
                          rate=0.02, s0=[1.0, 2.5, 0.7])


@pytest.mark.parametrize("config", [
    scenario_config("sim1", T=4.0, warmup=1.0, n_paths=1100, seed=41),
    scenario_config("sim2", T=4.0, warmup=1.0, n_paths=1100, seed=42),
    scenario_config("sim3", T=4.0, warmup=1.0, n_paths=1100, seed=43),
    SimulationConfig(spec=THREE_ASSETS, T=3.0, warmup=0.5, steps_per_year=24,
                     n_paths=1100, seed=44),
], ids=["sim1", "sim2", "sim3", "three-assets"])
def test_growth_summary_equals_the_accounts_bit_for_bit(config, monkeypatch):
    # The run prices a (paths, 2, n) slab of warmup and expiry states with a
    # stacked whitening and a 2-D mat-vec for the basket; across blocks of
    # 400 paths and past path 1024 (a stream boundary) it gives the bits of
    # the per-path accounts.
    monkeypatch.setattr(market, "_BLOCK_PATH_STEPS", 2 * 400)
    assert config.n_paths > _STREAM_PATHS and config.n_paths > market._BLOCK_PATH_STEPS // 2
    result = run_growth_simulation(config)
    terminal = reference_growth_accounts(config)[:, 1]
    np.testing.assert_array_equal(result.terminal_wealth, terminal)
    np.testing.assert_array_equal(result.cagr, np.log(terminal) / config.T)


@pytest.mark.parametrize("name", ["sim1", "sim3"])
def test_growth_endpoints_follow_the_exact_lognormal_law(name, monkeypatch):
    # (log S_w, log S_T) is Gaussian with mean log s0 + (mu - sigma^2/2) t and
    # covariance sigma_i sigma_j rho_ij min(t_a, t_b), across assets too; the
    # states the run prices match both within 5 standard errors
    config = scenario_config(name, T=20.0, warmup=5.0, n_paths=100_000, seed=61)
    spec = config.spec
    states = []

    def recording_log_levered(spec, s, t, T):
        states.append((s.copy(), np.array(t)))
        return log_levered(spec, s, t, T)

    log_levered = replication._log_levered
    monkeypatch.setattr(replication, "_log_levered", recording_log_levered)
    run_growth_simulation(config)
    t = states[0][1]
    assert all(np.array_equal(times, [5.0, 20.0]) for _, times in states)
    x = np.log(np.concatenate([s for s, _ in states])).reshape(config.n_paths, -1)
    mean = (np.log(spec.s0) + (spec.mu - 0.5 * spec.sigma**2) * t[:, None]).ravel()
    cov = (np.minimum.outer(t, t)[:, None, :, None]
           * (spec.sigma[:, None] * spec.corr * spec.sigma)[None, :, None, :]).reshape(x.shape[1], x.shape[1])
    n = config.n_paths
    assert np.all(np.abs(x.mean(axis=0) - mean) < 5.0 * np.sqrt(np.diag(cov) / n))
    sample = np.cov(x.T, ddof=1)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.all(np.abs(sample - cov) < 5.0 * se)


@pytest.mark.parametrize("name", ["sim1", "sim3"])
def test_growth_simulation_whitens_each_block_once(name, monkeypatch):
    # The run whitens one (paths, 2, n) slab of warmup and expiry states per
    # block, and that one whitening gives log C's bits.  Blocks of at most 600
    # paths never straddle a 1,024-path stream: 1,100 paths are 600 + 424 + 76.
    monkeypatch.setattr(market, "_BLOCK_PATH_STEPS", 2 * 600)
    config = scenario_config(name, T=30.0, n_paths=1100, seed=31)
    spec = config.spec
    whitened = []

    def counting_whiten(spec, z):
        whitened.append(z.shape)
        return whiten(spec, z)

    whiten = hindsight._whiten
    monkeypatch.setattr(hindsight, "_whiten", counting_whiten)
    result = run_growth_simulation(config)
    monkeypatch.setattr(hindsight, "_whiten", whiten)
    assert [shape for shape in whitened if len(shape) == 3] == [(600, 2, spec.n),
                                                                (424, 2, spec.n),
                                                                (76, 2, spec.n)]
    ends = np.array([5.0, 30.0])
    basket_shares = (1.0 / spec.n) / spec.s0
    blocks = market._price_blocks(spec, np.diff(ends, prepend=0.0)[:, None], 2,
                                  config.n_paths, "physical", config.seed)
    for first, prices in blocks:
        slab = prices[:, 1:]
        log_c = _log_levered(spec, slab, ends, config.T)
        np.testing.assert_array_equal(
            result.terminal_wealth[first:first + len(prices)],
            (slab[:, 0] @ basket_shares) * np.exp(log_c[:, 1] - log_c[:, 0]))


def test_growth_summary_at_1e4_paths_stays_small():
    # the summary keeps one value per path and one block of prices at a time
    config = scenario_config("sim3", T=20.0, warmup=1.0, steps_per_year=12, n_paths=10_000)
    tracemalloc.start()
    try:
        result = run_growth_simulation(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert result.terminal_wealth.shape == result.cagr.shape == (10_000,)
    assert np.all(np.isfinite(result.cagr))


def test_growth_simulation_cagr_concentrates_near_kelly():
    config = scenario_config("sim2", T=150.0, n_paths=60, seed=13)
    result = run_growth_simulation(config)
    assert abs(result.mean_cagr - result.kelly_growth_rate) < 0.02


def test_sim3_uses_leverage_for_long_stretches():
    # b(S, t) past the warmup, along simulate_paths paths, exceeds 1 in total
    spec = scenario_spec("sim3")
    stretches = [np.mean(np.sum(_fractions(spec, path.prices[61:-1], path.times[61:-1]),
                                axis=1) > 1.0)
                 for path in simulate_paths(spec, 60.0, 720, 5, seed=3)]
    assert max(stretches) > 0.2


def test_simulation_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(spec=scenario_spec("sim1"), T=4.0, warmup=5.0,
                         steps_per_year=12, n_paths=1, seed=0)
    with pytest.raises(ValidationError):
        scenario_spec("sim9")
    with pytest.raises(ValidationError):
        scenario_config("sim1", T=math.inf)
    with pytest.raises(ValidationError, match="seed"):
        run_growth_simulation(scenario_config("sim1", T=10.0, n_paths=1, seed=-1))
    for steps_per_year, n_paths in ((0, 1), (12, 0)):
        with pytest.raises(ValidationError, match="^steps_per_year and n_paths must be >= 1$"):
            scenario_config("sim1", steps_per_year=steps_per_year, n_paths=n_paths)


# ---------------------------------------------------------------------------
# Discrete backtester and CSV ingestion
# ---------------------------------------------------------------------------


def table_from(prices, times=None):
    prices = np.asarray(prices, dtype=float)
    if prices.ndim == 1:
        prices = prices[:, None]
    if times is None:
        times = np.arange(len(prices)) / 12.0
    return PriceTable(times=np.asarray(times, dtype=float), prices=prices,
                      columns=tuple(f"a{i}" for i in range(prices.shape[1])))


def test_buy_and_hold_identity():
    table = table_from([100.0, 112.0, 95.0, 130.0], times=[0.0, 1.0, 2.0, 3.0])
    result = discrete_backtest(table, [1.0])
    np.testing.assert_allclose(result.wealth, [1.0, 1.12, 0.95, 1.30])
    assert result.cagr == pytest.approx(1.30 ** (1.0 / 3.0) - 1.0)


def test_all_cash_is_flat():
    table = table_from([50.0, 75.0, 20.0], times=[0.0, 0.5, 1.0])
    result = discrete_backtest(table, [0.0], rate=0.0)
    np.testing.assert_allclose(result.wealth, 1.0)


def test_volatility_harvest_hand_example():
    table = table_from([100.0, 200.0, 100.0], times=[0.0, 1.0, 2.0])
    result = discrete_backtest(table, [0.5], rate=0.0)
    np.testing.assert_allclose(result.wealth, [1.0, 1.5, 1.125])
    assert not result.ruined


def test_levered_ruin_is_truncated_and_flagged():
    table = table_from([100.0, 100.0, 30.0, 40.0], times=[0.0, 1.0, 2.0, 3.0])
    result = discrete_backtest(table, [3.0], rate=0.0)  # -70% * 3 wipes out
    assert result.ruined
    assert result.ruin_index == 2
    assert len(result.wealth) == 2
    assert np.all(result.wealth > 0)
    assert math.isnan(result.cagr)


def test_rebalance_interval_subsamples_rows():
    monthly = table_from([100, 110, 105, 120, 90, 140, 150],
                         times=np.arange(7) / 12.0)
    every_third = discrete_backtest(monthly, [0.5], rebalance_interval=3)
    direct = discrete_backtest(table_from([100, 120, 150], times=[0, 0.25, 0.5]),
                               [0.5])
    np.testing.assert_allclose(every_third.wealth, direct.wealth)


def test_backtest_validation():
    table = table_from([100.0, 120.0])
    with pytest.raises(ValidationError):
        discrete_backtest(table, [0.5, 0.5])
    with pytest.raises(ValidationError):
        discrete_backtest(table, [0.5], rebalance_interval=0)
    with pytest.raises(ValidationError, match="^need at least two rebalance points$"):
        discrete_backtest(table_from([100.0, 120.0, 90.0]), [0.5], rebalance_interval=3)
    for b in ([math.nan], [math.inf], [-math.inf]):
        with pytest.raises(ValidationError, match="fractions must be finite"):
            discrete_backtest(table, b)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="rate must be finite"):
            discrete_backtest(table, [0.5], rate=rate)
    # finite inputs whose wealth or CAGR overflows
    doubling = table_from([100.0, 200.0, 400.0], times=[0.0, 1.0, 2.0])
    with pytest.raises(ValidationError, match="wealth is not representable"):
        discrete_backtest(doubling, [1e200])
    with pytest.raises(ValidationError, match="wealth is not representable"):
        discrete_backtest(table_from([1e-300, 1e300]), [0.5])
    with pytest.raises(ValidationError, match="CAGR is not representable"):
        discrete_backtest(table_from([100.0, 200.0], times=[0.0, 1e-6]), [1.0])
    for times in ([0.0, 0.0], [-1e308, 1e308]):
        with pytest.raises(ValidationError, match="positive, finite time"):
            discrete_backtest(table_from([100.0, 200.0], times=times), [0.5])
    # a ruined account keeps its finite prefix
    ruined = discrete_backtest(table_from([100.0, 10.0, 1e-300, 1e300]), [2.0])
    assert ruined.ruined and np.all(np.isfinite(ruined.wealth))


def test_load_price_table_numeric_and_dates(tmp_path):
    numeric = tmp_path / "n.csv"
    numeric.write_text("time,px\n0.0,100\n0.5,105\n1.0,98\n")
    table = load_price_table(str(numeric))
    np.testing.assert_allclose(table.times, [0.0, 0.5, 1.0])
    assert table.columns == ("px",)

    dated = tmp_path / "d.csv"
    dated.write_text("date,spy,agg\n2020-01-01,300,100\n2020-07-01,310,101\n"
                     "2021-01-01,340,99\n")
    table = load_price_table(str(dated))
    assert table.prices.shape == (3, 2)
    assert table.times[0] == 0.0
    assert table.times[-1] == pytest.approx(366 / 365.25)


def test_load_price_table_reports_positions(tmp_path):
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("time,px\n0.0,100\n0.5,oops\n")
    with pytest.raises(ValidationError, match=r"bad.csv:3: column 2"):
        load_price_table(str(bad_cell))

    bad_time = tmp_path / "time.csv"
    bad_time.write_text("time,px\n0.0,100\nlater,105\n")
    with pytest.raises(ValidationError, match=r"time.csv:3: column 1"):
        load_price_table(str(bad_time))

    unordered = tmp_path / "ord.csv"
    unordered.write_text("time,px\n0.0,100\n2.0,105\n1.0,99\n")
    with pytest.raises(ValidationError, match="increasing"):
        load_price_table(str(unordered))

    # non-finite cells, in files that parse at once and in files that need
    # the cell-by-cell parse (a 1_000 cell)
    for body, where in [("0.0,100\n0.5,nan\n", "3: column 2: prices must be finite"),
                        ("0.0,100\n0.5,inf\n", "3: column 2: prices must be finite"),
                        ("0.0,1_000\n0.5,-inf\n", "3: column 2: prices must be finite"),
                        ("0.0,100\nnan,105\n", "3: column 1: times must be finite"),
                        ("0.0,1_000\ninf,105\n", "3: column 1: times must be finite"),
                        ("0.0,1_000\n0.5,-2\n", "3: column 2: prices must be positive")]:
        bad = tmp_path / "nonfinite.csv"
        bad.write_text("time,px\n" + body)
        with pytest.raises(ValidationError, match=f"nonfinite.csv:{where}"):
            load_price_table(str(bad))

    # finite times whose offsets from the first row overflow, in both parses
    for body in ("-1e308,100\n1e308,200\n", "-1e308,1_000\n0,150\n1e308,200\n"):
        wide = tmp_path / "wide.csv"
        wide.write_text("time,px\n" + body)
        row = len(body.splitlines()) + 1
        with pytest.raises(ValidationError,
                           match=f"wide.csv:{row}: column 1: time span overflows"):
            load_price_table(str(wide))

    # blank lines hold no row: the error names the file line of the bad row
    for text, message in (("time,px\n0,1\n\n\n0,3\n", "rows must be in increasing time order"),
                          ("time,px\n\n-1e308,1\n\n1e308,3\n",
                           "column 1: time span overflows")):
        blank = tmp_path / "blank.csv"
        blank.write_text(text)
        with pytest.raises(ValidationError, match=f"blank.csv:5: {message}"):
            load_price_table(str(blank))


def reference_load_price_table(path):
    """The cell-by-cell CSV parser that load_price_table must agree with."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2:
        raise ValidationError(f"{path}:1: need a time column and at least one price column")
    n_cols = len(header)
    raw_times, rows, row_nos, base_date = [], [], [], None
    for row_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n_cols:
            raise ValidationError(
                f"{path}:{row_no}: expected {n_cols} columns, got {len(cells)}")
        try:
            stamp = float(cells[0])
        except ValueError:
            try:
                date = dt.date.fromisoformat(cells[0])
            except ValueError:
                raise ValidationError(
                    f"{path}:{row_no}: column 1: neither a number nor an ISO date: "
                    f"{cells[0]!r}") from None
            if base_date is None:
                base_date = date
            stamp = (date - base_date).days / 365.25
        prices_row = []
        for col_no, cell in enumerate(cells[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}:{row_no}: column {col_no}: not a number: {cell!r}") from None
            if value <= 0:
                raise ValidationError(
                    f"{path}:{row_no}: column {col_no}: prices must be positive, got {value}")
            prices_row.append(value)
        raw_times.append(stamp)
        rows.append(prices_row)
        row_nos.append(row_no)
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least two data rows")
    times = np.asarray(raw_times)
    if np.any(np.diff(times) <= 0):
        bad = row_nos[int(np.argmax(np.diff(times) <= 0)) + 1]
        raise ValidationError(f"{path}:{bad}: rows must be in increasing time order")
    return PriceTable(times=times - times[0], prices=np.asarray(rows),
                      columns=tuple(header[1:]))


def _long_price_file(dated):
    rng = np.random.default_rng(71)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((20_000, 3)), axis=0))
    if dated:
        stamps = [(dt.date(1990, 1, 1) + dt.timedelta(days=k)).isoformat() for k in range(20_000)]
    else:
        stamps = [repr(t) for t in np.cumsum(rng.uniform(1e-4, 1e-2, 20_000)).tolist()]
    lines = [f"{stamp},{','.join(map(repr, row))}" for stamp, row in zip(stamps, prices.tolist())]
    return "date,a,b,c\n" + "\n".join(lines) + "\n"


WELL_FORMED = {
    "iso": "date,spy,agg\n2020-01-01,300,100\n2020-02-29,310.5,101\n2021-01-01,340,99\n",
    "numeric": "time,px\n0.0,100\n0.25,1e2\n0.5,98.125\n1.5,+7E-3\n",
    "crlf_padded_blank": "time , a , b \r\n 0 ,  1.5 ,\t2\r\n\r\n  \r\n0.5, 3 ,4 \r\n1,5,6\r\n",
    "repr_20000_dated": _long_price_file(dated=True),
    "repr_20000_numeric": _long_price_file(dated=False),
}
CELL_BY_CELL = {
    "underscore": "time,px\n0,1_000\n1,2_000.5\n",
    "non_ascii_digits": "time,px\n0,\u0661\u0662\n1,13\n",
    "mixed_time_column": "time,px\n2020-01-01,100\n0.5,101\n2021-01-01,102\n3,103\n",
    "eight_digit_dates": "time,px\n2020-01-01,100\n20200105,101\n",
}
MALFORMED = [
    "", "time\n0\n1\n", "time,px\n", "time,px\n0,1\n", "time,px\n0,1\n1,oops\n",
    "time,px\n0,1\nlater,2\n", "time,px\n0,1\n1,2,3\n", "time,px\n0,1\n1\n",
    "time,px\n0,1\n1,0\n", "time,px\n0,1\n1,-2\n", "time,px\n0,1\n2,2\n1,3\n",
    "time,px\n0,1\n\n0,3\n", "time,px\n0,1\n1,\n", "date,px\n2020-01-01,1\n2020-13-01,2\n",
]


@pytest.mark.parametrize("name", sorted(WELL_FORMED) + sorted(CELL_BY_CELL))
def test_load_price_table_equals_the_cell_by_cell_parser(tmp_path, monkeypatch, name):
    csv = tmp_path / f"{name}.csv"
    csv.write_bytes((WELL_FORMED | CELL_BY_CELL)[name].encode("utf-8"))
    calls = []
    by_cell = replication._parse_rows_by_cell
    monkeypatch.setattr(replication, "_parse_rows_by_cell",
                        lambda *args: calls.append(args) or by_cell(*args))
    got = load_price_table(str(csv))
    want = reference_load_price_table(str(csv))
    assert got.times.tobytes() == want.times.tobytes()
    assert got.prices.tobytes() == want.prices.tobytes()
    assert got.prices.shape == want.prices.shape
    assert got.columns == want.columns
    assert bool(calls) == (name in CELL_BY_CELL)  # well-formed files parse at once


@pytest.mark.parametrize("text", MALFORMED)
def test_load_price_table_errors_equal_the_cell_by_cell_parser(tmp_path, text):
    csv = tmp_path / "bad.csv"
    csv.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as want:
        reference_load_price_table(str(csv))
    with pytest.raises(ValidationError) as got:
        load_price_table(str(csv))
    assert str(got.value) == str(want.value)


def test_ledger_csv_layout():
    path = simulate_paths(SPEC, 2.0, 50, 1, seed=61)[0]
    ledger = hedge_path(SPEC, path, 1.0, 2.0)
    lines = _ledger_csv(ledger).strip().splitlines()
    assert lines[0] == "time,wealth,cash,fraction_1,shares_1"
    assert len(lines) == len(ledger.times) + 1
    cells = lines[1].split(",")
    assert float(cells[0]) == ledger.times[0]
    assert float(cells[1]) == 1.0

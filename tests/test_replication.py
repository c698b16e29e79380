"""Hedge ledgers, growth experiments, and the discrete backtester."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from hindsight_options import (
    MarketSpec,
    PricePath,
    SimulationConfig,
    discrete_backtest,
    excess_growth_bound,
    hedge_path,
    intrinsic_value,
    load_price_table,
    log_intrinsic_value,
    log_price_levered,
    price_unlevered,
    run_growth_simulation,
    scenario_config,
    scenario_spec,
    simulate_paths,
    write_ledger_csv,
)
from hindsight_options.replication import PriceTable
from hindsight_options.errors import ValidationError
from hindsight_options.market import _BLOCK_PATH_STEPS, cholesky_with_tolerance

SPEC = MarketSpec.single(mu=0.07, sigma=0.3, rate=0.02, s0=1.0)


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
        bound = excess_growth_bound(SPEC, path.prices[i0], 1.5, 3.0)
        # equality holds in the continuous limit; 2pp covers discrete hedge error
        assert excess <= bound + 0.02


def test_two_asset_hedge_captures_the_price_ratio():
    spec = MarketSpec.pair(mu=(0.06, 0.1), sigma=(0.3, 0.5), rho=0.25,
                           rate=0.02, s0=(1.0, 1.0))
    paths = simulate_paths(spec, 3.0, 15_000, 10, seed=71)
    errs = []
    for path in paths:
        i0 = int(np.searchsorted(path.times, 2.0))
        ledger = hedge_path(spec, path, 2.0, 3.0)
        target = capture_target(spec, path, i0, 2.0, 3.0)
        errs.append(ledger.wealth[-1] / target - 1.0)
    assert float(np.sqrt(np.mean(np.square(errs)))) < 0.02


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


def test_growth_simulation_matches_scenario_kellys():
    for name, b_star, rate in (("sim1", [0.54], 0.0917),
                               ("sim2", [2.57], 0.116),
                               ("sim3", [0.39, 0.56], 0.137)):
        config = scenario_config(name, T=50.0, n_paths=4, seed=1)
        result = run_growth_simulation(config)
        np.testing.assert_allclose(result.kelly_fractions, b_star, atol=0.01)
        assert result.kelly_growth_rate == pytest.approx(rate, abs=1e-3)


def test_growth_simulation_wealth_tracks_stock_then_price():
    config = scenario_config("sim1", T=30.0, n_paths=2, seed=5)
    result = run_growth_simulation(config)
    spec = config.spec
    paths = simulate_paths(spec, 30.0, 360, 2, measure="physical", seed=5)
    for ledger, path in zip(result.ledgers, paths):
        i5 = int(np.searchsorted(path.times, 5.0))
        np.testing.assert_allclose(ledger.wealth[:i5 + 1], path.prices[:i5 + 1, 0],
                                   rtol=1e-12)
        k = i5 + 120
        expected = path.prices[i5, 0] * math.exp(
            log_price_levered(spec, path.prices[k], path.times[k], 30.0)
            - log_price_levered(spec, path.prices[i5], 5.0, 30.0))
        assert ledger.wealth[k] == pytest.approx(expected, rel=1e-12)
        assert result.terminal_wealth[0] == result.ledgers[0].wealth[-1]
        assert result.cagr[0] == pytest.approx(math.log(result.terminal_wealth[0]) / 30.0)


def test_growth_simulation_agrees_with_an_explicit_hedge():
    # price tracking and a self-financing delta hedge are the same account up
    # to discretization error, which accumulates in the log over the horizon
    config = scenario_config("sim2", T=10.0, steps_per_year=384, n_paths=3, seed=9)
    result = run_growth_simulation(config)
    spec = config.spec
    paths = simulate_paths(spec, 10.0, 3840, 3, measure="physical", seed=9)
    for ledger, path in zip(result.ledgers, paths):
        i5 = int(np.searchsorted(path.times, 5.0))
        hedged = hedge_path(spec, path, 5.0, 10.0)
        tracked = ledger.wealth[i5:] / ledger.wealth[i5]
        assert abs(math.log(hedged.wealth[-1] / tracked[-1])) < 0.2


def reference_growth_ledgers(config):
    """Path-by-path growth ledgers: (wealth, fractions, shares, cash) per path."""
    spec = config.spec
    steps = round(config.T * config.steps_per_year)
    i_buy = round(config.warmup * config.steps_per_year)
    lower = cholesky_with_tolerance(spec.corr)
    basket_shares = (1.0 / spec.n) / spec.s0
    ledgers = []
    for path in simulate_paths(spec, config.T, steps, config.n_paths, seed=config.seed):
        times, prices = path.times, path.prices
        t, s = times[i_buy:], prices[i_buy:]
        z = ((np.log(s / spec.s0) - (spec.rate - 0.5 * spec.sigma**2) * t[:, None])
             / (spec.sigma * np.sqrt(t)[:, None]))
        w = solve_triangular(lower, z.T, lower=True)
        log_c = (0.5 * spec.n * np.log(config.T / t) + spec.rate * t
                 + 0.5 * np.sum(w * w, axis=0))
        y = solve_triangular(lower.T, w, lower=False)

        wealth = np.empty(len(times))
        wealth[:i_buy + 1] = prices[:i_buy + 1] @ basket_shares
        wealth[i_buy:] = wealth[i_buy] * np.exp(log_c - log_c[0])
        fractions = np.empty((len(times), spec.n))
        fractions[:i_buy] = basket_shares * prices[:i_buy] / wealth[:i_buy, None]
        fractions[i_buy:] = (y / spec.sigma[:, None]).T / np.sqrt(t)[:, None]
        shares = fractions * wealth[:, None] / prices
        cash = wealth * (1.0 - np.sum(fractions, axis=1))
        fractions[-1] = 0.0
        shares[-1] = 0.0
        cash[-1] = wealth[-1]
        ledgers.append((times, wealth, fractions, shares, cash))
    return ledgers


@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3"])
def test_growth_simulation_equals_the_per_path_loop(name):
    steps = 360
    n_paths = _BLOCK_PATH_STEPS // steps + 3  # more than one block of paths
    config = scenario_config(name, T=30.0, n_paths=n_paths, seed=23)
    result = run_growth_simulation(config)
    want = reference_growth_ledgers(config)
    assert len(result.ledgers) == n_paths
    for ledger, (times, wealth, fractions, shares, cash) in zip(result.ledgers, want):
        np.testing.assert_array_equal(ledger.times, times)
        np.testing.assert_array_equal(ledger.wealth, wealth)
        np.testing.assert_array_equal(ledger.fractions, fractions)
        np.testing.assert_array_equal(ledger.shares, shares)
        np.testing.assert_array_equal(ledger.cash, cash)
    terminal = np.array([ledger[1][-1] for ledger in want])
    np.testing.assert_array_equal(result.terminal_wealth, terminal)
    np.testing.assert_array_equal(result.cagr, np.log(terminal) / 30.0)


def test_growth_simulation_cagr_concentrates_near_kelly():
    config = scenario_config("sim2", T=150.0, n_paths=60, seed=13)
    result = run_growth_simulation(config)
    assert abs(result.mean_cagr - result.kelly_growth_rate) < 0.02


def test_sim3_uses_leverage_for_long_stretches():
    config = scenario_config("sim3", T=60.0, n_paths=5, seed=3)
    result = run_growth_simulation(config)
    stretches = [np.mean(np.sum(led.fractions[61:-1], axis=1) > 1.0)
                 for led in result.ledgers]
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


def test_ledger_csv_layout(tmp_path):
    path = simulate_paths(SPEC, 2.0, 50, 1, seed=61)[0]
    ledger = hedge_path(SPEC, path, 1.0, 2.0)
    out = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,wealth,cash,fraction_1,shares_1"
    assert len(lines) == len(ledger.times) + 1
    cells = lines[1].split(",")
    assert float(cells[0]) == ledger.times[0]
    assert float(cells[1]) == 1.0

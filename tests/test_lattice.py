"""Lattice payoffs, closed sums vs. backward induction, replication, demon runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy.special import logsumexp, xlogy

from hindsight_options import (
    LatticeSpec,
    LatticeState,
    MarketSpec,
    best_rule,
    demon_simulation,
    hedge_lattice_path,
    induction_price_table,
    lattice_best_rule,
    lattice_log_price,
    lattice_payoff,
    lattice_price,
    price_time0_unlevered,
    shannon_spec,
)
from hindsight_options import lattice
from hindsight_options.errors import ValidationError
from hindsight_options.cli import _demon_csv
from hindsight_options.lattice import _best_rule, _log_node_rows, _logsumexp

GENERIC = LatticeSpec(u=1.25, d=0.85, r_per=0.03, n_steps=12)


def lattice_wealth(spec, b, j):
    """Terminal wealth of a fixed fraction: R^N [1 + b(u/R-1)]^j [1 + b(d/R-1)]^{N-j}."""
    gross = spec.gross_rate
    n = spec.n_steps
    up = 1.0 + b * (spec.u / gross - 1.0)
    dn = 1.0 + b * (spec.d / gross - 1.0)
    if up <= 0 or dn <= 0:
        return 0.0
    return gross**n * up**j * dn ** (n - j)


def test_spec_validation():
    with pytest.raises(ValidationError):
        LatticeSpec(u=1.1, d=0.9, r_per=0.2, n_steps=4)  # R > u
    with pytest.raises(ValidationError):
        LatticeSpec(u=1.1, d=-0.1, r_per=0.0, n_steps=4)
    with pytest.raises(ValidationError, match="u < inf"):
        LatticeSpec(u=math.inf, d=0.5, r_per=0.0, n_steps=4)  # q = 0
    with pytest.raises(ValidationError, match="overflows"):
        LatticeSpec.crr(sigma=1000.0, rate=0.0, horizon=1e6, n_steps=1)  # e^{1e6}
    with pytest.raises(ValidationError, match="overflows"):
        LatticeSpec.crr(sigma=0.2, rate=1000.0, horizon=1e6, n_steps=1)
    for horizon, n_steps in ((-1.0, 3), (math.nan, 3), (1.0, 0)):
        with pytest.raises(ValidationError, match="horizon"):
            LatticeSpec.crr(sigma=0.2, rate=0.0, horizon=horizon, n_steps=n_steps)
    with pytest.raises(ValidationError, match="^n_steps must be >= 1$"):
        LatticeSpec(u=2.0, d=0.5, r_per=0.0, n_steps=0)
    spec = shannon_spec(5)
    assert spec.q == pytest.approx(1.0 / 3.0)
    assert 0.0 < GENERIC.q < 1.0


def test_best_rule_balanced_outcome_is_zero():
    spec = shannon_spec(3)  # Nq = 1 exactly
    assert lattice_best_rule(spec, 1) == pytest.approx(0.0, abs=1e-14)


def test_best_rule_shannon_value():
    assert lattice_best_rule(shannon_spec(2), 1) == pytest.approx(0.5)


def test_best_rule_maximizes_terminal_wealth():
    for j in range(GENERIC.n_steps + 1):
        b_star = lattice_best_rule(GENERIC, j)
        top = lattice_wealth(GENERIC, b_star, j)
        grid = np.arange(-10.0, 10.0, 0.01)
        vals = [lattice_wealth(GENERIC, b, j) for b in grid]
        assert top >= max(vals) * (1 - 1e-12)
        assert top == pytest.approx(lattice_payoff(GENERIC, j), rel=1e-12)


def test_best_rule_is_the_kernel_at_every_j():
    for spec in (GENERIC, shannon_spec(7), LatticeSpec.crr(0.3, 0.05, 1.0, 25)):
        kernel = _best_rule(spec, np.arange(spec.n_steps + 1, dtype=float))
        assert [lattice_best_rule(spec, j) for j in range(spec.n_steps + 1)] == kernel.tolist()
        for j in (-1, spec.n_steps + 1):
            with pytest.raises(ValidationError, match="uptick count"):
                lattice_best_rule(spec, j)


def test_closed_sum_does_not_recheck_the_j_it_builds(monkeypatch):
    def refuse(spec, j):
        raise AssertionError("the closed sum re-checked its own uptick counts")

    monkeypatch.setattr(lattice, "_check_terminal", refuse)
    for mode in ("levered", "unlevered"):
        for n in range(GENERIC.n_steps + 1):
            for k in range(n + 1):
                assert math.isfinite(lattice_log_price(GENERIC, LatticeState(k, n), mode))
        with pytest.raises(ValidationError, match="beyond the 12-step lattice"):
            lattice_log_price(GENERIC, LatticeState(0, GENERIC.n_steps + 1), mode)


def test_payoff_zero_power_convention():
    # one-step double-or-half market, all-down outcome
    assert lattice_payoff(shannon_spec(1), 0) == pytest.approx(1.5)


def test_unlevered_payoff_matches_clamp_oracle():
    for spec in (GENERIC, shannon_spec(9)):
        for j in range(spec.n_steps + 1):
            grid = np.linspace(0.0, 1.0, 101)
            oracle = max(lattice_wealth(spec, b, j) for b in grid)
            value = lattice_payoff(spec, j, "unlevered")
            assert value >= oracle * (1 - 1e-12)
            b_clamped = min(max(lattice_best_rule(spec, j), 0.0), 1.0)
            assert value == pytest.approx(lattice_wealth(spec, b_clamped, j), rel=1e-12)


def test_levered_payoff_dominates_unlevered():
    for j in range(GENERIC.n_steps + 1):
        assert (lattice_payoff(GENERIC, j, "levered")
                >= lattice_payoff(GENERIC, j, "unlevered") * (1 - 1e-12))


@given(scale=st.floats(0.5, 2.0))
@settings(max_examples=30, deadline=None)
def test_levered_payoff_depends_only_on_q_and_gross_rate(scale):
    # reshaping u, d while preserving (q, R) leaves the levered payoff fixed
    base = LatticeSpec(u=1.3, d=0.8, r_per=0.01, n_steps=7)
    spread = (base.u - base.d) * scale
    d_new = base.gross_rate - base.q * spread
    if d_new <= 0:
        return
    other = LatticeSpec(u=d_new + spread, d=d_new, r_per=0.01, n_steps=7)
    assert other.q == pytest.approx(base.q, rel=1e-12)
    for j in range(8):
        assert (lattice_payoff(other, j, "levered")
                == pytest.approx(lattice_payoff(base, j, "levered"), rel=1e-10))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u", [1e308, 4e307])
def test_subnormal_q_gives_the_exact_payoffs_and_rules(u):
    # q = 0.5 / (u - 0.5) is subnormal: j / q overflows for every j >= 1 at
    # u = 1e308, and for j >= 3 only at u = 4e307, where j <= 2 keeps the
    # xlogy(j, j / q) bits.  Against 50-digit arithmetic with the exact q.
    spec = LatticeSpec(u=u, d=0.5, r_per=0.0, n_steps=5)
    n = 5
    j = np.arange(n + 1, dtype=float)
    log_payoff = lattice.lattice_log_payoff(spec, j)
    rules = _best_rule(spec, j)

    def xlog(a, b):
        return a * mp.log(a / b) if a else 0

    with mp.workdps(50):
        q = mpf(0.5) / (mpf(u) - mpf(0.5))
        for k in range(n + 1):
            want = n * mp.log(mpf(1) / n) + xlog(k, q) + xlog(n - k, 1 - q)
            assert float(log_payoff[k]) == pytest.approx(float(want), rel=1e-14)
            rule = (k - n * q) / (n * mpf(0.5) * (1 - q))  # R (j - Nq) / (N (R - d) (1 - q))
            assert rules[k] == pytest.approx(float(rule), rel=1e-14)
    if u == 4e307:
        with np.errstate(all="ignore"):
            assert log_payoff[1] == n * math.log(1.0 / n) + xlogy(1.0, 1.0 / spec.q) + xlogy(
                4.0, 4.0 / (1.0 - spec.q))
    unlevered = lattice.lattice_log_payoff(spec, j, "unlevered")
    np.testing.assert_array_equal(unlevered[1:3], log_payoff[1:3])  # b = 0.4, 0.8
    assert unlevered[0] == 0.0  # cash
    np.testing.assert_allclose(unlevered[3:], j[3:] * math.log(u) + (n - j[3:]) * math.log(0.5),
                               rtol=1e-15)  # hold
    assert lattice_price(spec, LatticeState(0, 0)) == pytest.approx(10970 / 5**5, rel=1e-12)


def test_terminal_state_price_is_the_payoff():
    for mode in ("levered", "unlevered"):
        for k in (0, 5, 12):
            assert (lattice_price(GENERIC, LatticeState(k, 12), mode)
                    == pytest.approx(lattice_payoff(GENERIC, k, mode), rel=1e-12))
    # one exp for both: bit for bit at every terminal node of a deep lattice,
    # and the same domain error where the levered payoff overflows
    deep = LatticeSpec.crr(0.3, 0.03, 2.0, 2000)
    for mode in ("levered", "unlevered"):
        for j in range(2001):
            try:
                payoff = lattice_payoff(deep, j, mode)
            except ValidationError:
                with pytest.raises(ValidationError):
                    lattice_price(deep, LatticeState(j, 2000), mode)
                continue
            assert lattice_price(deep, LatticeState(j, 2000), mode) == payoff


@pytest.mark.parametrize("mode", ["levered", "unlevered"])
def test_closed_sum_equals_backward_induction_everywhere(mode):
    # nonzero rate: interest accrual in the closed sums is what is being tested
    for spec in (LatticeSpec(u=1.2, d=0.9, r_per=0.02, n_steps=17), shannon_spec(14)):
        table = induction_price_table(spec, mode)
        for n in range(spec.n_steps + 1):
            for k in range(n + 1):
                closed = lattice_price(spec, LatticeState(k, n), mode)
                assert closed == pytest.approx(table[n][k], rel=1e-10)


def test_discounted_price_is_a_q_martingale():
    spec = GENERIC
    q, gross = spec.q, spec.gross_rate
    for mode in ("levered", "unlevered"):
        for n in (0, 4, 11):
            for k in range(n + 1):
                here = lattice_price(spec, LatticeState(k, n), mode)
                up = lattice_price(spec, LatticeState(k + 1, n + 1), mode)
                dn = lattice_price(spec, LatticeState(k, n + 1), mode)
                assert here == pytest.approx((q * up + (1 - q) * dn) / gross, rel=1e-12)


@pytest.mark.parametrize("mode", ["levered", "unlevered"])
@pytest.mark.parametrize("spec", [LatticeSpec.crr(0.3, 0.03, 2.0, 300), shannon_spec(300)],
                         ids=["crr", "shannon"])
def test_sweep_equals_closed_sum_at_every_node(spec, mode):
    worst = 0.0
    for n, row in _log_node_rows(spec, mode):
        assert row.shape == (n + 1,)
        closed = [lattice_log_price(spec, LatticeState(k, n), mode) for k in range(n + 1)]
        worst = max(worst, float(np.max(np.abs(row - closed))))
    assert worst < 1e-11


def test_logsumexp_agrees_with_scipy():
    rng = np.random.default_rng(8)
    cases = [rng.normal(0.0, 40.0, 301), rng.normal(-800.0, 5.0, 50), np.array([709.0, 710.0]),
             np.array([-math.inf, 1.5, -math.inf]), np.array([-2.0]), np.zeros(1000)]
    for terms in cases:
        assert _logsumexp(terms) == pytest.approx(float(logsumexp(terms)), rel=1e-14)
    assert _logsumexp(np.full(4, -math.inf)) == -math.inf == logsumexp(np.full(4, -math.inf))


def test_deep_sweep_root_is_finite_where_the_table_overflows():
    spec = LatticeSpec.crr(0.3, 0.03, 2.0, 2000)
    root = dict(_log_node_rows(spec))[0]
    assert root.shape == (1,) and math.isfinite(root[0])
    assert root[0] == pytest.approx(lattice_log_price(spec, LatticeState(0, 0)), abs=1e-10)
    with pytest.raises(ValidationError, match="use lattice_log_price"):
        induction_price_table(spec)


def test_american_exercise_never_pays():
    spec = LatticeSpec(u=1.15, d=0.9, r_per=0.01, n_steps=15)
    for mode in ("levered", "unlevered"):
        table = induction_price_table(spec, mode)
        for n in range(spec.n_steps):
            partial = LatticeSpec(u=spec.u, d=spec.d, r_per=spec.r_per,
                                  n_steps=max(n, 1))
            for k in range(n + 1):
                exercise = lattice_payoff(partial, k, mode) if n else 1.0
                assert table[n][k] >= exercise * (1 - 1e-12)


def test_time0_unlevered_closed_form_matches_node_price():
    # the root node against R^{-N} sum_j binom(N, j) q^j (1-q)^{N-j} V_N(b(j, N) clamped to [0, 1])
    for params in (dict(u=1.2, d=0.9, r_per=0.02), lattice.SHANNON):
        for n in (12, 25, 60):
            spec = LatticeSpec(n_steps=n, **params)
            q, gross = spec.q, spec.gross_rate
            total = 0.0
            for j in range(n + 1):
                b = gross * (j - n * q) / (n * (spec.u - spec.d) * q * (1 - q))
                total += (math.comb(n, j) * q**j * (1 - q) ** (n - j)
                          * lattice_wealth(spec, min(max(b, 0.0), 1.0), j))
            assert lattice_price(spec, LatticeState(0, 0), "unlevered") == pytest.approx(
                total / gross**n, rel=1e-12)


def test_levered_root_is_the_binomial_shtarkov_sum():
    # the discrete cost of universality, sum_j binom(N, j) (j/N)^j (1 - j/N)^{N-j},
    # whatever q and R are
    shtarkov = {n: sum(math.comb(n, j) * (j / n) ** j * (1 - j / n) ** (n - j)
                       for j in range(n + 1)) for n in (10, 50, 200)}
    assert list(shtarkov.values()) == pytest.approx(
        [4.66021568, 9.54312703934395, 18.398443855379146], rel=1e-12)
    for u, d, r_per in ((2.0, 0.5, 0.0), (1.2, 0.9, 0.02), (1.05, 0.97, 0.001),
                        (3.0, 0.1, 0.5)):
        for n, total in shtarkov.items():
            spec = LatticeSpec(u=u, d=d, r_per=r_per, n_steps=n)
            assert lattice_price(spec, LatticeState(0, 0)) == pytest.approx(total, rel=1e-12)


def test_continuum_limit_toward_the_time0_formula():
    target = price_time0_unlevered(0.3, 1.0)
    errs = []
    for n in (100, 1000):
        spec = LatticeSpec.crr(0.3, 0.0, 1.0, n)
        errs.append(abs(lattice_price(spec, LatticeState(0, 0), "unlevered") - target))
    assert errs[1] < errs[0]
    assert errs[1] < 0.01 * target


def test_delta_on_a_one_step_lattice_is_the_payoff_slope():
    # one step: only delta = (payoff(1) - payoff(0)) / (s (u - d)) ends on both payoffs
    spec = LatticeSpec(u=1.2, d=0.9, r_per=0.01, n_steps=1)
    for mode in ("levered", "unlevered"):
        wealth = hedge_lattice_path(spec, [[0], [1]], mode)
        assert wealth.shape == (2, 2)
        assert wealth[:, 0] == pytest.approx([lattice_price(spec, LatticeState(0, 0), mode)] * 2,
                                             rel=1e-12)
        assert wealth[:, 1] == pytest.approx([lattice_payoff(spec, 0, mode),
                                              lattice_payoff(spec, 1, mode)], rel=1e-12)


@pytest.mark.parametrize("mode", ["levered", "unlevered"])
def test_delta_hedge_replicates_sampled_paths(mode):
    spec = GENERIC
    table = induction_price_table(spec, mode)
    rng = np.random.default_rng(31)
    moves = (rng.random((40, spec.n_steps)) < 0.5).astype(int)
    wealth = hedge_lattice_path(spec, moves, mode)
    assert wealth.shape == (40, spec.n_steps + 1)
    # wealth tracks the node price exactly along the whole path
    k = np.cumsum(np.c_[np.zeros(40, dtype=int), moves], axis=1)
    for n in range(spec.n_steps + 1):
        np.testing.assert_allclose(wealth[:, n], table[n][k[:, n]], rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("mode", ["levered", "unlevered"])
def test_batch_hedge_is_the_one_path_hedge_per_row(mode, monkeypatch):
    tables = []

    def counted(spec, mode="levered"):
        tables.append(mode)
        return induction_price_table(spec, mode)

    monkeypatch.setattr(lattice, "induction_price_table", counted)
    rng = np.random.default_rng(5)
    moves = (rng.random((3, 7, GENERIC.n_steps)) < 0.4).astype(int)
    batch = hedge_lattice_path(GENERIC, moves, mode)
    assert batch.shape == (3, 7, GENERIC.n_steps + 1) and tables == [mode]
    for i in np.ndindex(3, 7):
        assert np.array_equal(batch[i], hedge_lattice_path(GENERIC, moves[i], mode))
    assert len(tables) == 1 + 21
    assert hedge_lattice_path(GENERIC, moves[:0], mode).shape == (0, 7, GENERIC.n_steps + 1)
    for wrong in (moves[..., :-1], np.zeros((4, GENERIC.n_steps + 1)), moves.swapaxes(1, 2)):
        with pytest.raises(ValidationError, match="^moves must be 12 entries of 0 or 1$"):
            hedge_lattice_path(GENERIC, wrong, mode)


def test_replication_fraction_approaches_continuous_rule():
    # delta * S / C at the lattice converges to b(S, t) under CRR calibration
    sigma, rate, t, T = 0.35, 0.02, 1.0, 2.0
    market = MarketSpec.single(mu=rate, sigma=sigma, rate=rate, s0=1.0)
    s_t = math.exp((rate - 0.5 * sigma**2) * t + sigma * math.sqrt(t) * 0.8)
    target = best_rule(market, s_t, t).b[0]
    errs = []
    for n in (200, 800):
        spec = LatticeSpec.crr(sigma, rate, T, n)
        steps = round(n * t / T)
        # choose the uptick count whose node price is closest to s_t
        k = round((math.log(s_t) - steps * math.log(spec.d))
                  / (math.log(spec.u) - math.log(spec.d)))
        s_node = spec.u**k * spec.d ** (steps - k)
        c_node = lattice_price(spec, LatticeState(k, steps))
        delta = ((lattice_price(spec, LatticeState(k + 1, steps + 1))
                  - lattice_price(spec, LatticeState(k, steps + 1))) / (s_node * (spec.u - spec.d)))
        b_node = delta * s_node / c_node
        target_node = best_rule(market, s_node, steps * T / n).b[0]
        errs.append(abs(b_node - target_node))
    assert errs[1] < max(errs[0], 0.02)
    assert errs[1] < 0.05 * max(1.0, abs(target))


def test_deep_shannon_price_is_finite_and_above_par():
    # 300 steps: the payoff peaks near 3^300, far beyond float range for any
    # naive product, yet the log-space closed sum stays finite
    from hindsight_options import lattice_log_price

    log_c = lattice_log_price(shannon_spec(300), LatticeState(0, 0))
    assert math.isfinite(log_c)
    assert 0.0 < log_c < 10.0  # a few dozen dollars per dollar of face
    assert math.exp(log_c) > 1.0


def test_demon_all_up_path():
    ledger = demon_simulation(10, 1.0, seed=0)
    sh = shannon_spec(10)
    assert ledger.stock[-1] == 2.0**10
    expected = (lattice_price(sh, LatticeState(10, 10))
                / lattice_price(sh, LatticeState(0, 0)))
    assert ledger.wealth[-1] == pytest.approx(expected, rel=1e-12)


def test_demon_wealth_matches_closed_sum_ratios():
    sh = shannon_spec(1000)
    ledger = demon_simulation(1000, 0.5, seed=12)
    log_c0 = lattice_log_price(sh, LatticeState(0, 0))
    closed = [math.exp(lattice_log_price(sh, LatticeState(int(k), int(n))) - log_c0)
              for k, n in zip(ledger.upticks, ledger.steps)]
    np.testing.assert_allclose(ledger.wealth, closed, rtol=1e-10, atol=0.0)


def test_demon_is_deterministic():
    a = demon_simulation(50, 0.5, seed=9)
    b = demon_simulation(50, 0.5, seed=9)
    np.testing.assert_array_equal(a.upticks, b.upticks)
    np.testing.assert_array_equal(a.wealth, b.wealth)


def test_demon_fair_coin_beats_the_stock_in_median():
    stock_logs, wealth_logs = [], []
    for seed in range(100):
        ledger = demon_simulation(300, 0.5, seed)
        stock_logs.append(math.log(ledger.stock[-1]))
        wealth_logs.append(math.log(ledger.wealth[-1]))
    # a fair-coin stock has no median growth; the replication compounds anyway
    assert abs(np.median(stock_logs)) < 0.05 * np.median(wealth_logs)
    assert np.median(wealth_logs) > np.median(stock_logs)
    assert np.median(wealth_logs) > 0.0


def test_demon_csv():
    ledger = demon_simulation(5, 0.5, seed=1)
    lines = _demon_csv(ledger).strip().splitlines()
    assert lines[0] == "step,upticks,stock,wealth"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 1.0 and float(first[3]) == 1.0


def test_state_validation():
    with pytest.raises(ValidationError):
        LatticeState(3, 2)
    with pytest.raises(ValidationError):
        lattice_price(GENERIC, LatticeState(0, 13))
    with pytest.raises(ValidationError):
        lattice_payoff(GENERIC, 13)
    with pytest.raises(ValidationError, match="^unknown mode 'covered'$"):
        lattice_payoff(GENERIC, 3, "covered")
    for moves in (np.ones(11), np.full(12, 2), np.r_[np.zeros(11), -1]):
        with pytest.raises(ValidationError, match="^moves must be 12 entries of 0 or 1$"):
            hedge_lattice_path(GENERIC, moves)
    for p in (-0.1, 1.1, math.nan):
        with pytest.raises(ValidationError, match=r"^p must lie in \[0, 1\]$"):
            demon_simulation(5, p, seed=1)
    # values beyond float64 name the log-space API instead of returning inf
    deep = LatticeSpec(u=1.02, d=0.98, r_per=0.0, n_steps=2000)
    with pytest.raises(ValidationError, match="use lattice_log_price"):
        lattice_price(deep, LatticeState(2000, 2000))
    with pytest.raises(ValidationError, match="use lattice_log_payoff"):
        lattice_payoff(deep, 2000)
    with pytest.raises(ValidationError, match="use lattice_log_price"):
        demon_simulation(3000, 0.9, seed=1)


def test_non_finite_uptick_counts_are_refused():
    for j in (math.nan, math.inf, -math.inf):
        for call in (lambda: lattice_best_rule(GENERIC, j),
                     lambda: lattice.lattice_log_payoff(GENERIC, j),
                     lambda: lattice_payoff(GENERIC, j),
                     lambda: lattice.lattice_log_payoff(GENERIC, [0, j, 2], "unlevered")):
            with pytest.raises(ValidationError, match="^uptick count must be a whole number$"):
                call()


def test_fractional_uptick_counts_are_refused():
    spec = LatticeSpec(u=1.2, d=0.9, r_per=0.01, n_steps=3)
    for j in (1.5, np.float32(0.25), [1.0, 2.5]):
        for call in (lattice_best_rule, lattice_payoff, lattice.lattice_log_payoff):
            with pytest.raises(ValidationError, match="^uptick count must be a whole number$"):
                call(spec, j)
    # whole floats are uptick counts: the same bits as the ints
    assert lattice_payoff(spec, 2.0) == lattice_payoff(spec, 2)
    assert lattice_best_rule(spec, np.float64(1.0)) == lattice_best_rule(spec, 1)
    assert (lattice.lattice_log_payoff(spec, [0.0, 3.0]).tolist()
            == lattice.lattice_log_payoff(spec, [0, 3]).tolist())


def test_non_numeric_uptick_counts_are_refused():
    # a string is not a number; None reads as NaN, which is not a whole number
    for j, message in (("1", "^uptick count must be numbers$"),
                       (None, "^uptick count must be a whole number$")):
        for call in (lattice_best_rule, lattice_payoff, lattice.lattice_log_payoff):
            with pytest.raises(ValidationError, match=message):
                call(GENERIC, j)


def test_fractional_step_counts_are_refused():
    for n_steps in (2.5, math.nan, "3", None):
        with pytest.raises(ValidationError, match="^n_steps must be an integer"):
            LatticeSpec(2.0, 0.5, 0.0, n_steps)
        with pytest.raises(ValidationError, match="^n_steps must be an integer"):
            LatticeSpec.crr(sigma=0.2, rate=0.01, horizon=1.0, n_steps=n_steps)
    spec = LatticeSpec(2.0, 0.5, 0.0, np.float64(3.0))  # a whole float is a step count
    assert spec.n_steps == 3 and type(spec.n_steps) is int


def test_lattice_state_takes_only_integral_positions():
    for k, n in ((1.5, 2), (1, 2.5), (math.nan, 2), (0, math.inf), ("1", 2), (None, 2)):
        with pytest.raises(ValidationError, match="^[kn] must be an integer, got "):
            LatticeState(k, n)
    state = LatticeState(np.int64(1), 2.0)
    assert (state.k, state.n) == (1, 2) and type(state.k) is type(state.n) is int
    assert lattice_price(GENERIC, state) == lattice_price(GENERIC, LatticeState(1, 2))


def test_hedge_moves_are_checked_before_they_are_cast():
    spec = LatticeSpec(u=1.2, d=0.9, r_per=0.01, n_steps=3)
    for moves in ([0.5, 1.9, 0], ["1", "0", "1"], [1, math.nan, 0], [[0, 1, 0], [1, 1, 2]]):
        with pytest.raises(ValidationError, match="^moves must be 3 entries of 0 or 1$"):
            hedge_lattice_path(spec, moves)
    assert np.array_equal(hedge_lattice_path(spec, [1.0, 0.0, 1.0]),
                          hedge_lattice_path(spec, [1, 0, 1]))

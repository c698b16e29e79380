"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold, so a verbose
run reads as a checklist.  Tolerances are fixed here, not calibrated later.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from hindsight_options import (
    LatticeSpec,
    LatticeState,
    MarketSpec,
    PricePath,
    best_rule,
    greeks,
    hedge_lattice_path,
    hedge_path,
    implied_vols,
    induction_price_table,
    lattice_price,
    log_intrinsic_value,
    log_price_levered,
    mc_price,
    multi_delta,
    price_levered,
    price_time0_unlevered,
    price_unlevered,
    run_growth_simulation,
    scenario_config,
    simulate_paths,
    time0_unlevered_price,
    validate_market,
)

mp.dps = 40


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def random_market(rng, n):
    sigma = rng.uniform(0.15, 0.8, size=n)
    if n == 1:
        corr = np.eye(1)
    else:
        a = rng.standard_normal((n, n + 2))
        cov = a @ a.T
        d = 1.0 / np.sqrt(np.diag(cov))
        corr = d[:, None] * cov * d[None, :]
    rate = rng.uniform(0.0, 0.06)
    spec = MarketSpec(n=n, mu=np.full(n, rate), sigma=sigma, corr=corr,
                      rate=rate, s0=np.ones(n))
    return validate_market(spec)


def random_state(rng, spec, t):
    shock = rng.standard_normal(spec.n) @ np.linalg.cholesky(spec.corr).T
    return np.exp((spec.rate - 0.5 * spec.sigma**2) * t
                  + spec.sigma * math.sqrt(t) * shock)


def test_criterion_01_time0_price_formula():
    """Time-0 unlevered oracle hits 1 + sigma sqrt(T/(2 pi)) at 1e6 paths."""
    spec = MarketSpec.single(mu=0.0, sigma=0.7, rate=0.0, s0=1.0)
    est = mc_price(spec, 1.0, 0.0, 5.0, "unlevered", n_paths=1_000_000, seed=101)
    target = price_time0_unlevered(0.7, 5.0)
    gap = abs(est.mean - target)
    assert gap < 4.0 * est.std_error
    report(1, f"|mc - (1 + 0.7 sqrt(5/2pi))| = {gap:.2e} < 4 se = {4 * est.std_error:.2e}")


def test_criterion_02_closed_forms_match_the_oracle():
    """20 random states, n in {1,2,3}, t in (0.1T, 0.9T): within 4 std errors."""
    rng = np.random.default_rng(2002)
    checks = 0
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(1, 4))
        spec = random_market(rng, n)
        horizon = rng.uniform(1.0, 4.0)
        t = rng.uniform(0.1, 0.9) * horizon
        s = random_state(rng, spec, t)
        closed = price_levered(spec, s, t, horizon).price
        est = mc_price(spec, s, t, horizon, "levered", n_paths=400_000,
                       seed=300 + i)
        assert abs(closed - est.mean) < 4.0 * est.std_error
        worst = max(worst, abs(closed - est.mean) / est.std_error)
        checks += 1
        if n == 1:
            closed = price_unlevered(spec, s, t, horizon).price
            est = mc_price(spec, s, t, horizon, "unlevered", n_paths=400_000,
                           seed=600 + i)
            assert abs(closed - est.mean) < 4.0 * est.std_error
            worst = max(worst, abs(closed - est.mean) / est.std_error)
            checks += 1
    report(2, f"{checks} price/oracle comparisons, worst gap {worst:.2f} se")


def _mp_price(s, t, T, r, sigma, s0):
    s, t, T, r, sigma, s0 = map(mpf, (s, t, T, r, sigma, s0))
    z = (mp.log(s / s0) - (r - sigma**2 / 2) * t) / (sigma * mp.sqrt(t))
    return mp.sqrt(T / t) * mp.exp(r * t + z * z / 2)


def test_criterion_03_greeks_match_finite_differences():
    """All five greeks vs central differences at 1e-5 scale; PDE residual 1e-8."""
    rng = np.random.default_rng(3003)
    worst_fd = 0.0
    worst_pde = 0.0
    states = 0
    while states < 100:
        sigma = rng.uniform(0.15, 0.8)
        horizon = rng.uniform(0.5, 5.0)
        t = rng.uniform(0.1, 0.9) * horizon
        r = rng.uniform(0.0, 0.06)
        z = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.2, 2.0)
        if abs(z - sigma * math.sqrt(t)) < 0.05:  # rho ~ 0: relative error ill-posed
            continue
        s0 = 100.0
        s = s0 * math.exp((r - 0.5 * sigma**2) * t + sigma * math.sqrt(t) * z)
        spec = MarketSpec.single(mu=r, sigma=sigma, rate=r, s0=s0)
        g = greeks(spec, s, t, horizon)
        c = price_levered(spec, s, t, horizon).price
        if abs(g.theta) < 1e-3 * c or abs(g.vega) < 1e-3 * c:
            continue
        states += 1

        def around(**kw):
            base = dict(s=s, t=t, T=horizon, r=r, sigma=sigma, s0=s0)
            base.update(kw)
            return _mp_price(**base)

        hs, ht, hsig = mpf(1e-5 * s), mpf(1e-5 * t), mpf(1e-5 * sigma)
        hr = mpf(1e-5 * max(r, 1.0))
        fd = {
            "delta": (around(s=s + hs) - around(s=s - hs)) / (2 * hs),
            "theta": (around(t=t + ht) - around(t=t - ht)) / (2 * ht),
            "vega": (around(sigma=sigma + hsig) - around(sigma=sigma - hsig)) / (2 * hsig),
            "rho": (around(r=r + hr) - around(r=r - hr)) / (2 * hr),
        }

        def second(h):
            return (around(s=s + h) - 2 * around() + around(s=s - h)) / h**2

        fd["gamma"] = (4 * second(hs) - second(2 * hs)) / 3  # Richardson in h^2
        for name, reference in fd.items():
            rel = abs(getattr(g, name) - float(reference)) / abs(float(reference))
            assert rel < 1e-6, f"{name}: {rel}"
            worst_fd = max(worst_fd, rel)
        residual = abs(0.5 * sigma**2 * s**2 * g.gamma + r * s * g.delta
                       + g.theta - r * c) / c
        assert residual < 1e-8
        worst_pde = max(worst_pde, residual)
    report(3, f"100 states: worst greek-vs-fd rel {worst_fd:.1e}, "
              f"worst pde residual {worst_pde:.1e}")


def test_criterion_04_replication_identity():
    """delta_i S_i / C = b_i(S, t) to 1e-12 on random states."""
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        spec = random_market(rng, n)
        horizon = rng.uniform(1.0, 4.0)
        t = rng.uniform(0.1, 0.95) * horizon
        s = random_state(rng, spec, t)
        c = price_levered(spec, s, t, horizon).price
        deltas = multi_delta(spec, s, t, horizon)
        b = best_rule(spec, s, t).b
        gap = np.max(np.abs(deltas * s / c - b) / np.maximum(1.0, np.abs(b)))
        assert gap < 1e-12
        worst = max(worst, gap)
        if n == 1:
            g = greeks(spec, float(s[0]), t, horizon)
            gap1 = abs(g.delta * float(s[0]) / c - float(b[0]))
            assert gap1 < 1e-12 * max(1.0, abs(float(b[0])))
            worst = max(worst, gap1)
    report(4, f"200 states: worst |delta S / C - b| = {worst:.1e}")


def test_criterion_05_lattice_exactness():
    """Closed sums equal induction (N <= 25); delta-hedge exact on all 2^12 paths."""
    worst_node = 0.0
    for spec in (LatticeSpec(u=1.2, d=0.9, r_per=0.02, n_steps=25),
                 LatticeSpec(u=2.0, d=0.5, r_per=0.0, n_steps=25)):
        for mode in ("levered", "unlevered"):
            table = induction_price_table(spec, mode)
            for n in range(spec.n_steps + 1):
                for k in range(n + 1):
                    closed = lattice_price(spec, LatticeState(k, n), mode)
                    rel = abs(closed - table[n][k]) / table[n][k]
                    assert rel < 1e-10
                    worst_node = max(worst_node, rel)

    spec = LatticeSpec(u=1.25, d=0.85, r_per=0.03, n_steps=12)
    worst_path = 0.0
    bits = (np.arange(4096)[:, None] >> np.arange(12)[None, :]) & 1
    for mode in ("levered", "unlevered"):
        table = induction_price_table(spec, mode)
        payoff = table[12][bits.sum(axis=1)]
        rel = np.abs(hedge_lattice_path(spec, bits, mode)[:, -1] - payoff) / payoff
        assert np.all(rel < 1e-10)
        worst_path = max(worst_path, float(rel.max()))
    report(5, f"closed-vs-induction worst rel {worst_node:.1e}; "
              f"2^12-path replication worst rel {worst_path:.1e}")


def test_criterion_06_lattice_continuum_limit():
    """CRR time-0 unlevered price converges to 1 + sigma sqrt(T/(2 pi))."""
    target = price_time0_unlevered(0.3, 1.0)
    errs = []
    for n in (100, 1000, 10_000):
        spec = LatticeSpec.crr(0.3, 0.0, 1.0, n)
        errs.append(abs(time0_unlevered_price(spec) - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01 * target
    report(6, "lattice-vs-closed errors "
              + " > ".join(f"{e:.2e}" for e in errs) + f", final within 1%")


def test_criterion_07_hedge_convergence():
    """Levered hedge captures V_T*/C(S_t0, t0): RMS < 1% at 1e4 steps, 200 paths."""
    spec = MarketSpec.single(mu=0.07, sigma=0.3, rate=0.02, s0=1.0)
    t0, horizon = 2.0, 3.0
    paths = simulate_paths(spec, horizon, 30_000, 200, measure="physical", seed=777)

    def rms(stride):
        errs = []
        for path in paths:
            sub = PricePath(times=path.times[::stride], prices=path.prices[::stride])
            i0 = int(np.searchsorted(sub.times, t0))
            ledger = hedge_path(spec, sub, t0, horizon)
            target = math.exp(log_intrinsic_value(spec, sub.prices[-1], horizon)
                              - log_price_levered(spec, sub.prices[i0], t0, horizon))
            errs.append(ledger.wealth[-1] / target - 1.0)
        return float(np.sqrt(np.mean(np.square(errs))))

    coarse = rms(4)   # 2.5e3 rebalances over [t0, T]
    fine = rms(1)     # 1e4 rebalances
    assert fine < 0.01
    assert fine < coarse
    report(7, f"RMS capture error {coarse:.4f} @2.5e3 -> {fine:.4f} @1e4 steps")


def test_criterion_08_growth_simulations():
    """Scenario Kelly numbers are exact; mean realized CAGR lands within 1.5pp."""
    expected = {"sim1": ([0.54], 0.0917), "sim2": ([2.57], 0.116),
                "sim3": ([0.39, 0.56], 0.137)}
    lines = []
    for name, (b_star, growth) in expected.items():
        config = scenario_config(name, T=500.0, n_paths=200, seed=7)
        result = run_growth_simulation(config)
        np.testing.assert_allclose(result.kelly_fractions, b_star, atol=0.01)
        assert result.kelly_growth_rate == pytest.approx(growth, abs=1e-3)
        gap = abs(result.mean_cagr - result.kelly_growth_rate)
        assert gap < 0.015
        lines.append(f"{name} {gap * 100:.2f}pp")
    report(8, "mean-CAGR gaps to the Kelly rate: " + ", ".join(lines))


def test_criterion_09_no_early_exercise():
    """Price strictly above intrinsic before expiry; equal at expiry."""
    rng = np.random.default_rng(9009)
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        spec = random_market(rng, n)
        horizon = rng.uniform(0.5, 5.0)
        t = rng.uniform(0.02, 0.999) * horizon
        s = random_state(rng, spec, t)
        quote = price_levered(spec, s, t, horizon)
        assert quote.price > quote.intrinsic
        if n == 1:
            as_unlevered = price_unlevered(spec, s, t, horizon)
            assert as_unlevered.price >= as_unlevered.intrinsic * (1 - 1e-9)
    spec = random_market(rng, 2)
    s = random_state(rng, spec, 1.0)
    at_expiry = price_levered(spec, s, 1.0, 1.0)
    assert at_expiry.price == at_expiry.intrinsic
    report(9, "10^4 states: price > intrinsic for t < T, equality at t = T")


def test_criterion_10_implied_vol_round_trip():
    """sigma -> price -> implied vols recovers sigma; all roots reprice."""
    rng = np.random.default_rng(1010)
    worst_recover = 0.0
    worst_reprice = 0.0
    for _ in range(1000):
        sigma = rng.uniform(0.1, 0.9)
        r = rng.uniform(0.0, 0.06)
        horizon = rng.uniform(0.5, 3.0)
        t = rng.uniform(0.1, 0.9) * horizon
        spec = MarketSpec.single(mu=r, sigma=sigma, rate=r, s0=1.0)
        s = float(random_state(rng, spec, t)[0])
        observed = price_levered(spec, s, t, horizon).price
        roots = implied_vols(observed, s, 1.0, t, horizon, r).roots
        assert roots
        recover = min(abs(x - sigma) for x in roots)
        assert recover < 1e-8
        worst_recover = max(worst_recover, recover)
        for root in roots:
            respec = MarketSpec.single(mu=r, sigma=root, rate=r, s0=1.0)
            rel = abs(price_levered(respec, s, t, horizon).price - observed) / observed
            assert rel < 1e-9
            worst_reprice = max(worst_reprice, rel)
    report(10, f"1000 round trips: worst recovery {worst_recover:.1e}, "
               f"worst reprice rel {worst_reprice:.1e}")

"""Closed-form prices, Greeks, implied volatilities, and the regret bound."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy.integrate import quad
from scipy.special import ndtr

from hindsight_options import (
    MarketSpec,
    PricePath,
    RebalancingRule,
    best_rule,
    excess_growth_bound,
    greeks,
    hedge_path,
    implied_vols,
    intrinsic_value,
    log_intrinsic_value,
    log_price_levered,
    log_price_unlevered,
    min_rational_price,
    multi_delta,
    price_levered,
    price_time0_unlevered,
    price_unlevered,
    time0_unlevered_excess_growth,
    unlevered_terms,
    wealth_of_rule,
    z_score,
)
from hindsight_options import hindsight, pricing
from hindsight_options.errors import IrrationalPriceError, ValidationError
from hindsight_options.hindsight import _fractions, _log_levered, _log_unlevered_intrinsic, _z
from hindsight_options.pricing import _log_unlevered_terms, _unlevered_fractions
from unlevered_reference import mp_log_unlevered_price, mp_unlevered_fraction

SPEC = MarketSpec.single(mu=0.0, sigma=0.2, rate=0.03, s0=100.0)


def state_price(spec, z, t):
    """Price with a prescribed z-score."""
    sigma = float(spec.sigma[0])
    return float(spec.s0[0]) * math.exp((spec.rate - 0.5 * sigma**2) * t
                                        + sigma * math.sqrt(t) * z)


def random_spec(rng, n):
    sigma = rng.uniform(0.15, 0.8, size=n)
    if n == 1:
        corr = np.eye(1)
    else:
        a = rng.standard_normal((n, n + 2))
        cov = a @ a.T
        d = 1.0 / np.sqrt(np.diag(cov))
        corr = d[:, None] * cov * d[None, :]
    rate = rng.uniform(0.0, 0.06)
    return MarketSpec(n=n, mu=np.full(n, rate), sigma=sigma, corr=corr,
                      rate=rate, s0=np.ones(n))


# ---------------------------------------------------------------------------
# Levered price
# ---------------------------------------------------------------------------


def test_price_equals_intrinsic_at_expiry():
    q = price_levered(SPEC, 117.0, 2.0, 2.0)
    assert q.price == q.intrinsic
    assert q.universality_factor == 1.0


def test_minimum_rational_price_value():
    s = state_price(SPEC, 0.0, 0.5)
    q = price_levered(SPEC, s, 0.5, 1.0)
    assert q.price == pytest.approx(math.sqrt(2.0) * math.exp(0.015), rel=1e-12)
    assert q.price == pytest.approx(min_rational_price(1, 0.5, 1.0, 0.03), rel=1e-12)


def test_universality_factor_is_exact():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        spec = random_spec(rng, n)
        s = np.exp(rng.normal(0.0, 0.3, size=n))
        t, T = 0.7, 2.1
        q = price_levered(spec, s, t, T)
        assert q.universality_factor == (T / t) ** (0.5 * n)
        assert q.price == pytest.approx(q.intrinsic * q.universality_factor, rel=1e-12)
        assert q.price >= min_rational_price(n, t, T, spec.rate) * (1 - 1e-12)


@given(z=st.floats(-3.0, 3.0), frac=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_never_exercised_early(z, frac):
    T = 2.0
    t = frac * T
    s = state_price(SPEC, z, t)
    q = price_levered(SPEC, s, t, T)
    assert q.price > q.intrinsic


def test_price_diverges_at_time_zero():
    with pytest.raises(ValidationError):
        price_levered(SPEC, 100.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        price_levered(SPEC, 100.0, 1.5, 1.0)  # t > T
    for t, T in ((1.0, math.nan), (math.nan, 2.0), (1.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            price_levered(SPEC, 100.0, t, T)
    with pytest.raises(ValidationError, match="finite"):
        price_levered(SPEC, math.inf, 1.0, 2.0)
    # T / t overflows although t and T are finite
    flat = MarketSpec.single(0.0, 0.1, 0.0)
    for call in (lambda: log_price_levered(flat, 1.0, 1e-300, 1e10),
                 lambda: min_rational_price(3, 1e-300, 1e10, 0.0),
                 lambda: excess_growth_bound(flat, 1.0, 1e-300, 1e10)):
        with pytest.raises(ValidationError, match="finite"):
            call()


def test_log_price_survives_huge_states():
    # z'z/2 beyond float overflow territory for the plain exponent
    spec = MarketSpec.single(mu=0.0, sigma=0.2, rate=0.02, s0=1.0)
    s = state_price(spec, 40.0, 1.0)
    log_c = log_price_levered(spec, s, 1.0, 4.0)
    assert log_c == pytest.approx(0.5 * math.log(4.0) + 0.02 + 800.0, rel=1e-12)
    # the linear-space quantities overflow there: a domain error, not inf or OverflowError
    for linear in (price_levered, multi_delta):
        with pytest.raises(ValidationError, match="not representable in float64"):
            linear(spec, s, 1.0, 4.0)
    with pytest.raises(ValidationError, match="use log_intrinsic_value"):
        intrinsic_value(spec, s, 1.0)
    # the price is finite, but the factor (T/t)^{n/2} = 1e310 that the quote also reports is not
    wide = MarketSpec(n=4, mu=[0.0] * 4, sigma=[0.2] * 4, corr=np.eye(4), rate=-100.0,
                      s0=[1.0] * 4)
    s = [math.exp(-100.02)] * 4
    assert log_price_levered(wide, s, 1.0, 1e155) == pytest.approx(613.80, abs=0.01)
    with pytest.raises(ValidationError, match="^result is not representable in float64; "
                                              "use log_price_levered$"):
        price_levered(wide, s, 1.0, 1e155)


def test_a_price_ratio_that_underflows_still_prices_in_logs():
    # S/S0 = 1e-600 underflows to 0; log S - log S0 does not
    spec = MarketSpec.single(mu=-1600.0, sigma=0.2, rate=-1600.0, s0=1e300)
    with mp.workdps(40):
        z = ((mp.log(mpf(1e-300)) - mp.log(mpf(1e300)) - (mpf(-1600) - mpf(0.2) ** 2 / 2) / 2)
             / (mpf(0.2) * mp.sqrt(mpf(0.5))))
        want = float(mp.log(2) / 2 - 800 + z * z / 2)
    assert want == pytest.approx(8453950.3359941777, rel=1e-15)
    assert log_price_levered(spec, 1e-300, 0.5, 1.0) == pytest.approx(want, rel=1e-12)
    # the linear prices are out of range: one for overflow, one for an intrinsic value of 0
    for linear, log_api in ((price_levered, "log_price_levered"),
                            (price_unlevered, "log_price_unlevered")):
        with pytest.raises(ValidationError, match=log_api):
            linear(spec, 1e-300, 0.5, 1.0)
    assert np.isfinite(log_price_unlevered(spec, 1e-300, 0.5, 1.0))
    # the same ratio in implied_vols: two roots of the quadratic in sigma^2
    with mp.workdps(40):
        k = 2 * mp.log(2) + mp.log(mpf(0.5))
        lp = mp.log(mpf(1e-300)) - mp.log(mpf(1e300))
        qb, qc = lp - k, lp * lp
        disc = mp.sqrt(qb * qb - qc)
        want = [float(mp.sqrt(2 * (-qb - disc))), float(mp.sqrt(2 * (-qb + disc)))]
    assert implied_vols(2.0, 1e-300, 1e300, 1.0, 2.0, 0.0).roots == pytest.approx(want,
                                                                                  rel=1e-13)


def test_an_underflowed_quote_raises():
    # rt = -800: the state's prices, V_t* and Greeks all lie below the least float64
    spec = MarketSpec.single(mu=-1600.0, sigma=0.2, rate=-1600.0, s0=1e300)
    s, t, T = 3.6e-48, 0.5, 1.0
    assert log_price_levered(spec, s, t, T) == pytest.approx(-799.65, abs=0.01)
    for call, log_api in ((lambda: price_levered(spec, s, t, T), "log_price_levered"),
                          (lambda: price_levered(spec, s, t, 1.5e69), "log_price_levered"),
                          (lambda: greeks(spec, s, t, T), "log_price_levered"),
                          (lambda: multi_delta(spec, s, t, T), "log_price_levered"),
                          (lambda: min_rational_price(1, t, T, -1600.0), "log_price_levered"),
                          (lambda: intrinsic_value(spec, s, t), "log_intrinsic_value"),
                          (lambda: intrinsic_value(spec, s, t, "unlevered"), "log_intrinsic_value"),
                          (lambda: price_unlevered(spec, s, t, T), "log_price_unlevered")):
        with pytest.raises(ValidationError,
                           match=f"^result is not representable in float64; use {log_api}$"):
            call()
    # at T = 1.5e69 the levered price is subnormal and only V_t* underflows
    assert 0.0 < math.exp(log_price_levered(spec, s, t, 1.5e69)) < 1e-300
    # a negligible unlevered term and a wealth too small for float64 stay 0.0
    assert unlevered_terms(spec, s, t, T) == (0.0, 0.0, 0.0)
    assert wealth_of_rule(spec, s, t, RebalancingRule(b=[0.5])) == 0.0


def test_each_quote_checks_and_scores_its_state_once(monkeypatch):
    calls = collections.Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    for module in (hindsight, pricing):
        for name in ("_as_prices", "_z", "_check_horizon"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    s, t, T = 105.0, 0.5, 1.0
    quotes = {
        "z_score": lambda: z_score(SPEC, s, t),
        "best_rule": lambda: best_rule(SPEC, s, t, "unlevered"),
        "wealth_of_rule": lambda: wealth_of_rule(SPEC, s, t, RebalancingRule(b=[0.5])),
        "intrinsic_value": lambda: intrinsic_value(SPEC, s, t, "unlevered"),
        "log_intrinsic_value": lambda: log_intrinsic_value(SPEC, s, t),
        "min_rational_price": lambda: min_rational_price(1, t, T, 0.03),
        "price_levered": lambda: price_levered(SPEC, s, t, T),
        "unlevered_terms": lambda: unlevered_terms(SPEC, s, t, T),
        "log_price_unlevered": lambda: log_price_unlevered(SPEC, s, t, T),
        "price_unlevered": lambda: price_unlevered(SPEC, s, t, T),
        "price_unlevered at expiry": lambda: price_unlevered(SPEC, s, T, T),
        "greeks": lambda: greeks(SPEC, s, t, T),
        "multi_delta": lambda: multi_delta(SPEC, s, t, T),
        "implied_vols": lambda: implied_vols(1.5, s, 100.0, t, T, 0.03),
        "excess_growth_bound": lambda: excess_growth_bound(SPEC, s, t, T),
    }
    for name, quote in quotes.items():
        calls.clear()
        quote()
        assert max(calls.values()) == 1, (name, calls)
        if name.startswith(("price_unlevered", "greeks")):
            assert calls["_z"] == 1, (name, calls)


def assert_unlevered_intrinsic_kernel(spec, s, t, T):
    """The batch V_t* kernel equals every scalar route to V_t*, bit for bit."""
    log_v = _log_unlevered_intrinsic(spec, s, _z(spec, s, t), t)
    for i in range(len(t)):
        v = math.exp(log_v[i])
        assert log_intrinsic_value(spec, s[i], t[i], "unlevered") == log_v[i]
        assert intrinsic_value(spec, s[i], t[i], "unlevered") == v
        assert price_unlevered(spec, s[i], t[i], T).intrinsic == v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_quotes_equal_the_batched_kernels(n):
    rng = np.random.default_rng(40 + n)
    spec = random_spec(rng, n)
    T = 2.5
    t = rng.uniform(0.05, 1.0, 40) * T
    s = np.exp(rng.normal(0.0, 0.6, (40, n)))
    log_c = _log_levered(spec, s, t, T)
    fractions = _fractions(spec, s, t)
    for i in range(40):
        c = math.exp(log_c[i])
        assert price_levered(spec, s[i], t[i], T).price == c
        np.testing.assert_array_equal(multi_delta(spec, s[i], t[i], T),
                                      c * fractions[i] / s[i])
    if n == 1:
        log_terms, log_p, _ = _log_unlevered_terms(spec, s, t, T)
        for i in range(40):
            assert price_unlevered(spec, s[i], t[i], T).price == math.exp(log_p[i])
            assert unlevered_terms(spec, s[i], t[i], T) == tuple(math.exp(x[i]) for x in log_terms)
        # the hedge sees the same states in time order, then the expired point
        order = np.argsort(t)
        path = PricePath(times=np.concatenate([[0.0], t[order], [T]]),
                         prices=np.concatenate([[1.0], s[order, 0], [1.0]]))
        ledger = hedge_path(spec, path, float(t[order[0]]), T, mode="unlevered")
        held = _unlevered_fractions(spec, s, t, T)[order]
        np.testing.assert_array_equal(ledger.fractions[:-1, 0],
                                      np.where(1.0 - held == 1.0, 0.0, held))
        # V_t* in all three clamp regimes, before and at expiry
        z = _z(spec, s, t)[:, 0]
        cap = spec.sigma[0] * np.sqrt(t)
        assert np.any(z < 0.0) and np.any((z > 0.0) & (z < cap)) and np.any(z > cap)
        assert_unlevered_intrinsic_kernel(spec, s, t, T)
        assert_unlevered_intrinsic_kernel(spec, s, np.full(40, T), T)
        # states exactly on both regime boundaries: z = log S at t = 4, where sigma sqrt(t) = 1
        edge = MarketSpec.single(mu=0.0, sigma=0.5, rate=0.125)
        s_edge, t_edge = np.array([[1.0], [math.e]]), np.full(2, 4.0)
        np.testing.assert_array_equal(_z(edge, s_edge, t_edge), [[0.0], [1.0]])
        for T_edge in (5.0, 4.0):
            assert_unlevered_intrinsic_kernel(edge, s_edge, t_edge, T_edge)


# ---------------------------------------------------------------------------
# Greeks
# ---------------------------------------------------------------------------


def test_greeks_at_the_drift_point():
    t, T = 0.5, 1.0
    s = state_price(SPEC, 0.0, t)
    g = greeks(SPEC, s, t, T)
    c = price_levered(SPEC, s, t, T).price
    assert g.delta == pytest.approx(0.0, abs=1e-12)
    assert g.rho == pytest.approx(c * t, rel=1e-12)


def test_delta_times_price_ratio_is_the_best_rule():
    from hindsight_options import best_rule

    rng = np.random.default_rng(4)
    for _ in range(50):
        t = rng.uniform(0.1, 1.8)
        s = state_price(SPEC, rng.normal(), t)
        g = greeks(SPEC, s, t, 2.0)
        c = price_levered(SPEC, s, t, 2.0).price
        b = best_rule(SPEC, s, t).b[0]
        assert g.delta * s / c == pytest.approx(b, abs=1e-12 * max(1.0, abs(b)))


def test_black_scholes_identity_holds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        sigma = rng.uniform(0.1, 0.8)
        r = rng.uniform(0.0, 0.08)
        spec = MarketSpec.single(mu=r, sigma=sigma, rate=r, s0=1.0)
        T = rng.uniform(0.5, 5.0)
        t = rng.uniform(0.1, 0.9) * T
        s = state_price(spec, rng.normal(), t)
        g = greeks(spec, s, t, T)
        c = price_levered(spec, s, t, T).price
        residual = 0.5 * sigma**2 * s**2 * g.gamma + r * s * g.delta + g.theta - r * c
        assert abs(residual) < 1e-8 * c


def test_greeks_match_plain_finite_differences():
    # first-order greeks against float central differences at 1e-5 * scale
    t, T = 0.8, 2.0
    s = state_price(SPEC, 0.9, t)
    g = greeks(SPEC, s, t, T)

    def price_at(s_=s, t_=t, sigma_=0.2, r_=0.03):
        spec = MarketSpec.single(mu=r_, sigma=sigma_, rate=r_, s0=100.0)
        return price_levered(spec, s_, t_, T).price

    hs, ht, hsig, hr = 1e-5 * s, 1e-5 * t, 1e-5 * 0.2, 1e-5
    assert g.delta == pytest.approx((price_at(s_=s + hs) - price_at(s_=s - hs)) / (2 * hs), rel=1e-7)
    assert g.theta == pytest.approx((price_at(t_=t + ht) - price_at(t_=t - ht)) / (2 * ht), rel=1e-7)
    assert g.vega == pytest.approx((price_at(sigma_=0.2 + hsig) - price_at(sigma_=0.2 - hsig)) / (2 * hsig), rel=1e-6)
    assert g.rho == pytest.approx((price_at(r_=0.03 + hr) - price_at(r_=0.03 - hr)) / (2 * hr), rel=1e-6)


def test_greeks_domain():
    with pytest.raises(ValidationError):
        greeks(SPEC, 100.0, 1.0, 1.0)  # t = T excluded
    with pytest.raises(ValidationError):
        greeks(MarketSpec.pair(mu=(0, 0), sigma=(0.2, 0.2), rho=0.0, rate=0.0),
               [1.0, 1.0], 0.5, 1.0)
    with pytest.raises(ValidationError, match="not representable in float64"):
        greeks(MarketSpec.single(mu=0.0, sigma=0.1, rate=0.0), 1e30, 0.01, 2.0)
    with pytest.raises(ValidationError, match="finite"):
        greeks(SPEC, 100.0, 0.5, math.nan)


def test_multi_delta_overflow_raises_without_a_warning():
    # C b overflows at the first state (log C ~ 709), C b / S at the second
    states = ((MarketSpec.single(mu=-0.0042, sigma=0.169, rate=-0.0042, s0=1.0275),
               0.0545, 0.2125, 1.068),
              (MarketSpec.single(mu=0.0, sigma=0.2, rate=0.0, s0=1e-300), 1e-300, 1e-300, 1.0))
    for spec, s, t, T in states:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="use log_price_levered$"):
                multi_delta(spec, s, t, T)


def test_a_tiny_volatility_quote_raises_without_a_warning():
    # z ~ 7e299 at sigma = 1e-300: z' R^{-1} z overflows, so log C is not representable
    spec = MarketSpec.single(mu=0.0, sigma=1e-300, rate=0.0, s0=1.0)
    for call in (log_price_levered, price_levered, multi_delta, greeks, excess_growth_bound,
                 log_price_unlevered, price_unlevered):
        with pytest.raises(ValidationError, match="not even log_price_levered"):
            call(spec, 2.0, 1.0, 2.0)


def test_multi_delta_reduces_and_matches_fd():
    t, T = 0.6, 1.5
    s = state_price(SPEC, -0.7, t)
    np.testing.assert_allclose(multi_delta(SPEC, s, t, T)[0],
                               greeks(SPEC, s, t, T).delta, rtol=1e-12)
    s0 = state_price(SPEC, 0.0, t)
    np.testing.assert_allclose(multi_delta(SPEC, s0, t, T), [0.0], atol=1e-12)

    spec = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.4, 0.6), rho=0.3, rate=0.02)
    s = np.array([1.3, 0.8])
    deltas = multi_delta(spec, s, 1.0, 3.0)
    for i in range(2):
        h = 1e-5 * s[i]
        up, dn = s.copy(), s.copy()
        up[i] += h
        dn[i] -= h
        fd = (price_levered(spec, up, 1.0, 3.0).price
              - price_levered(spec, dn, 1.0, 3.0).price) / (2 * h)
        assert deltas[i] == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# Unlevered price
# ---------------------------------------------------------------------------


def test_unlevered_zero_vol_limit():
    spec = MarketSpec.single(mu=0.0, sigma=1e-7, rate=0.04, s0=1.0)
    s = math.exp(0.04 * 1.0)  # the deterministic path
    assert price_unlevered(spec, s, 1.0, 2.0).price == pytest.approx(math.exp(0.04), rel=1e-6)


@pytest.mark.parametrize("rate", [0.0, 0.05])
def test_unlevered_small_t_limit_is_the_time0_price(rate):
    target = price_time0_unlevered(0.7, 5.0)
    spec = MarketSpec.single(mu=rate, sigma=0.7, rate=rate, s0=1.0)
    diffs = []
    for t in (1e-3, 1e-4, 1e-5):
        s = state_price(spec, 0.0, t)
        diffs.append(abs(price_unlevered(spec, s, t, 5.0).price - target))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-5


def test_unlevered_decomposition_and_ordering():
    rng = np.random.default_rng(6)
    for _ in range(40):
        sigma = rng.uniform(0.1, 0.8)
        r = rng.uniform(0.0, 0.06)
        spec = MarketSpec.single(mu=r, sigma=sigma, rate=r, s0=1.0)
        T = rng.uniform(0.5, 4.0)
        t = rng.uniform(0.1, 0.9) * T
        s = state_price(spec, rng.normal(), t)
        terms = unlevered_terms(spec, s, t, T)
        assert all(term >= 0.0 for term in terms)
        q = price_unlevered(spec, s, t, T)
        assert q.price == pytest.approx(sum(terms), rel=1e-12)
        assert q.price <= price_levered(spec, s, t, T).price * (1 + 1e-12)
        assert q.price >= q.intrinsic * (1 - 1e-9)


def test_unlevered_expiry_and_domain():
    q = price_unlevered(SPEC, 130.0, 2.0, 2.0)
    assert q.price == intrinsic_value(SPEC, 130.0, 2.0, "unlevered")
    assert math.exp(log_price_unlevered(SPEC, 130.0, 2.0, 2.0)) == q.price
    with pytest.raises(ValidationError):
        price_unlevered(SPEC, 100.0, 2.5, 2.0)
    with pytest.raises(ValidationError):
        price_unlevered(MarketSpec.pair(mu=(0, 0), sigma=(0.2, 0.2), rho=0.0, rate=0.0),
                        [1.0, 1.0], 0.5, 1.0)
    # the levered factor of the interior term overflows; the price is about S/S0
    for spec, s in ((MarketSpec.single(0.05, 0.1, 0.02), 1e3),
                    (MarketSpec.single(0.0, 0.1, 0.0), 1e30)):
        assert price_unlevered(spec, s, 0.01, 2.0).price == pytest.approx(s, rel=1e-12)
        assert sum(unlevered_terms(spec, s, 0.01, 2.0)) == pytest.approx(s, rel=1e-12)
    # e^{rt} with rt = 720: only the log is representable
    spec = MarketSpec.single(0.0, 0.1, 400.0)
    assert log_price_unlevered(spec, 1.0, 1.8, 2.0) == pytest.approx(720.0, abs=1e-12)
    for linear in (price_unlevered, unlevered_terms):
        with pytest.raises(ValidationError, match="not representable in float64; use log_price_unlevered"):
            linear(spec, 1.0, 1.8, 2.0)


def test_unlevered_log_price_and_hedge_fraction_match_mpmath():
    rng = np.random.default_rng(11)
    gaps, fraction_gaps = [], []
    for i in range(300):
        sigma, r = rng.uniform(0.1, 0.8), rng.uniform(0.0, 0.06)
        T = rng.uniform(0.5, 4.0)
        t = rng.uniform(0.05, 0.95) * T
        s = math.exp(rng.normal(0.0, 1.5))
        spec = MarketSpec.single(mu=r, sigma=sigma, rate=r)
        gaps.append(log_price_unlevered(spec, s, t, T) - mp_log_unlevered_price(sigma, r, 1.0, s, t, T))
        if i % 5 == 0:  # a fraction is a share of wealth: compared absolutely
            fraction = float(_unlevered_fractions(spec, np.array([s]), t, T))
            fraction_gaps.append(fraction - mp_unlevered_fraction(sigma, r, 1.0, s, t, T))
    assert max(map(abs, gaps)) <= 1e-9
    assert max(map(abs, fraction_gaps)) <= 1e-10
    # deep out of the money (z = -9.24): a linear-space Phi(x2) - Phi(x1) cancels here
    spec = MarketSpec.single(mu=0.026, sigma=0.243, rate=0.026)
    want = math.exp(mp_log_unlevered_price(0.243, 0.026, 1.0, 0.3096, 0.273, 2.719))
    assert price_unlevered(spec, 0.3096, 0.273, 2.719).price == pytest.approx(want, rel=1e-9)


def test_time0_price_values():
    assert price_time0_unlevered(0.7, 5.0) == pytest.approx(
        1.0 + 0.7 * math.sqrt(5.0 / (2.0 * math.pi)), rel=1e-15)
    assert price_time0_unlevered(0.3, 0.0) == 1.0
    with pytest.raises(ValidationError, match="not representable"):
        price_time0_unlevered(1e300, 1e30)
    for T in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="^T must be nonnegative and finite$"):
            price_time0_unlevered(0.3, T)


# ---------------------------------------------------------------------------
# Gaussian integral identities used in the derivations
# ---------------------------------------------------------------------------


def test_truncated_gaussian_integral_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = rng.uniform(0.2, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        a, b = sorted(rng.uniform(-5.0, 5.0, size=2))
        numeric, _ = quad(lambda y: math.exp(-alpha * y * y + beta * y), a, b)
        root = math.sqrt(2.0 * alpha)
        closed = (math.sqrt(math.pi / alpha) * math.exp(beta**2 / (4 * alpha))
                  * (ndtr(b * root - beta / root) - ndtr(a * root - beta / root)))
        assert numeric == pytest.approx(float(closed), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_multivariate_gaussian_integral_identity(n):
    # int exp(-y'Ay + beta'y) dy = pi^{n/2} det(A)^{-1/2} exp(beta'A^{-1}beta/4)
    rng = np.random.default_rng(8 + n)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    beta = rng.uniform(-1.0, 1.0, size=n)
    closed = (math.pi ** (n / 2) / math.sqrt(np.linalg.det(a))
              * math.exp(float(beta @ np.linalg.solve(a, beta)) / 4.0))
    # importance sampling with an overdispersed proposal keeps weights bounded
    prop_cov = 1.5 * np.linalg.inv(2.0 * a)
    mean = np.linalg.solve(a, beta) / 2.0
    draws = rng.multivariate_normal(mean, prop_cov, size=200_000)
    centered = draws - mean
    log_pdf = (-0.5 * np.sum(centered @ np.linalg.inv(prop_cov) * centered, axis=1)
               - 0.5 * math.log(np.linalg.det(2.0 * math.pi * prop_cov)))
    log_f = -np.sum(draws @ a * draws, axis=1) + draws @ beta
    weights = np.exp(log_f - log_pdf)
    est, se = weights.mean(), weights.std(ddof=1) / math.sqrt(len(weights))
    assert abs(est - closed) < 4.0 * se


def test_pde_residual_vanishes_at_second_order():
    # finite-difference Black-Scholes operator on both closed forms
    def residual(price_fn, s, t, h):
        c = price_fn(s, t)
        c_up, c_dn = price_fn(s + h * s, t), price_fn(s - h * s, t)
        c_tp, c_tm = price_fn(s, t + h * t), price_fn(s, t - h * t)
        gamma = (c_up - 2 * c + c_dn) / (h * s) ** 2
        delta = (c_up - c_dn) / (2 * h * s)
        theta = (c_tp - c_tm) / (2 * h * t)
        return (0.5 * 0.2**2 * s**2 * gamma + 0.03 * s * delta + theta - 0.03 * c) / c

    for fn in (lambda s, t: price_levered(SPEC, s, t, 2.0).price,
               lambda s, t: price_unlevered(SPEC, s, t, 2.0).price):
        s = state_price(SPEC, 0.6, 1.0)
        coarse = residual(fn, s, 1.0, 2e-3)
        fine = residual(fn, s, 1.0, 1e-3)
        assert abs(fine) < 1e-4
        assert abs(fine) < abs(coarse) / 3.0  # ~4x shrink per halving


# ---------------------------------------------------------------------------
# Implied volatility
# ---------------------------------------------------------------------------


def test_implied_vols_round_trip_reference_state():
    observed = price_levered(SPEC, 105.0, 0.5, 1.0).price
    roots = implied_vols(observed, 105.0, 100.0, 0.5, 1.0, 0.03).roots
    assert len(roots) == 2
    assert min(abs(r - 0.2) for r in roots) < 1e-10
    for root in roots:
        spec = MarketSpec.single(mu=0.03, sigma=root, rate=0.03, s0=100.0)
        assert price_levered(spec, 105.0, 0.5, 1.0).price == pytest.approx(observed, rel=1e-9)


def test_minimum_price_gives_a_double_root():
    # S below S0 e^{rt} makes the floor attainable: z = 0 at sigma^2 = -2 Lp / t
    s, s0, t, T, r = 95.0, 100.0, 0.5, 1.0, 0.03
    floor = min_rational_price(1, t, T, r)
    roots = implied_vols(floor, s, s0, t, T, r).roots
    assert len(roots) == 1
    expected = math.sqrt(-2.0 * (math.log(s / s0) - r * t) / t)
    # float noise in log(floor) perturbs the degenerate root at ~1e-8
    assert roots[0] == pytest.approx(expected, rel=1e-6)


def test_just_above_minimum_brackets_the_double_root():
    s, s0, t, T, r = 95.0, 100.0, 0.5, 1.0, 0.03
    floor = min_rational_price(1, t, T, r)
    double = math.sqrt(-2.0 * (math.log(s / s0) - r * t) / t)
    roots = implied_vols(floor * (1.0 + 1e-6), s, s0, t, T, r).roots
    assert len(roots) == 2
    assert roots[0] < double < roots[1]


def test_a_nonpositive_observed_price_is_refused():
    # at rt = -800 the floor underflows to 0, so 0 would pass the floor check
    for price in (0.0, -0.0, -1.0):
        for r in (0.03, -1600.0):
            with pytest.raises(ValidationError, match="observed price must be strictly positive"):
                implied_vols(price, 1.0, 1.0, 0.5, 1.0, r)


def test_below_minimum_raises_with_the_bound():
    floor = min_rational_price(1, 0.5, 1.0, 0.03)
    with pytest.raises(IrrationalPriceError, match="minimum rational price"):
        implied_vols(floor * 0.99, 105.0, 100.0, 0.5, 1.0, 0.03)


def test_rational_but_unattainable_price_returns_no_roots():
    # S above S0 e^{rt}: prices between the universal floor and the
    # state-dependent minimum over sigma admit no volatility at all
    s, s0, t, T, r = 105.0, 100.0, 0.5, 1.0, 0.03
    floor = min_rational_price(1, t, T, r)
    roots = implied_vols(floor * (1.0 + 1e-9), s, s0, t, T, r).roots
    assert roots == ()
    # at the floor itself K = 0, and with S/S0 > e^{rt} both roots of the
    # quadratic, each -4 Lp / t, are negative
    assert implied_vols(2.0, 1.1, 1.0, 0.5, 2.0, 0.0).roots == ()


def test_implied_vol_random_round_trips():
    rng = np.random.default_rng(9)
    for _ in range(100):
        sigma = rng.uniform(0.1, 0.8)
        r = rng.uniform(0.0, 0.06)
        T = rng.uniform(0.5, 3.0)
        t = rng.uniform(0.1, 0.9) * T
        spec = MarketSpec.single(mu=r, sigma=sigma, rate=r, s0=1.0)
        s = state_price(spec, rng.normal(), t)
        observed = price_levered(spec, s, t, T).price
        roots = implied_vols(observed, s, 1.0, t, T, r).roots
        assert min(abs(x - sigma) for x in roots) < 1e-8


@given(args=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 6))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_implied_vols_over_the_whole_finite_domain(args):
    # price, s, s0, t, T, rate: finite roots or a package error, never a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            roots = implied_vols(*args).roots
        except (ValidationError, IrrationalPriceError):
            return
    assert all(0.0 < root < math.inf for root in roots)


# ---------------------------------------------------------------------------
# Excess growth bound
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error")
def test_excess_growth_bound_formula_and_limits():
    t, T = 1.0, 3.0
    s = state_price(SPEC, 1.1, t)
    z = z_score(SPEC, s, t)[0]
    expected = (0.03 * t + 0.5 * z * z + 0.5 * math.log(T / t)) / (T - t)
    assert excess_growth_bound(SPEC, s, t, T) == pytest.approx(expected, rel=1e-12)

    horizons = [2.0, 5.0, 20.0, 100.0, 1e4, 1e6]
    bounds = [excess_growth_bound(SPEC, s, t, T_) for T_ in horizons]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] < 1e-4
    # log C / (T - t) overflows where T - t is subnormal
    with pytest.raises(ValidationError, match="use log_price_levered$"):
        excess_growth_bound(MarketSpec.single(0.0, 0.2, 0.0), 1.0, 1e-309, 3e-309)


@pytest.mark.filterwarnings("error")
def test_time0_unlevered_excess_growth_value():
    exact = math.log(1.0 + 0.7 * math.sqrt(5.0 / (2.0 * math.pi))) / 5.0
    assert time0_unlevered_excess_growth(0.7, 5.0) == pytest.approx(exact, rel=1e-14)
    assert time0_unlevered_excess_growth(0.7, 5.0) == pytest.approx(0.0971, abs=1e-4)
    # sigma sqrt(T / (2 pi)) overflows float64; the rate is taken from its log
    for T in (1e20, 1e30):
        with mp.workdps(40):
            want = float(mp.log1p(mpf(1e300) * mp.sqrt(mpf(T) / (2 * mp.pi))) / mpf(T))
        assert time0_unlevered_excess_growth(1e300, T) == pytest.approx(want, rel=1e-14)
    # log(1 + premium) / T overflows at a subnormal T, also where T is a numpy float
    for T in (5e-324, np.float64(5e-324)):
        with pytest.raises(ValidationError, match="^the regret rate is not representable"):
            time0_unlevered_excess_growth(1e262, T)
    for T in (0.0, -1.0):
        with pytest.raises(ValidationError, match="^T must be positive$"):
            time0_unlevered_excess_growth(0.7, T)

"""Market spec validation and exact-lognormal path generation."""

import math
import warnings

import numpy as np
import pytest

from hindsight_options import (
    MarketSpec,
    PricePath,
    correlated_normals,
    covariance,
    load_market_spec,
    save_market_spec,
    simulate_paths,
    validate_market,
)
from hindsight_options.errors import ValidationError
from hindsight_options.market import _BLOCK_PATH_STEPS, cholesky_with_tolerance

CORR3 = [[1.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, 1.0]]
SPECS_BY_N = {
    1: MarketSpec.single(mu=0.07, sigma=0.3, rate=0.02, s0=5.0),
    2: MarketSpec.pair(mu=(0.1, 0.05), sigma=(0.3, 0.5), rho=0.4, rate=0.03, s0=(2.0, 1.0)),
    3: MarketSpec(n=3, mu=[0.05, 0.08, 0.1], sigma=[0.2, 0.4, 0.6], corr=CORR3,
                  rate=0.01, s0=[1.0, 2.0, 3.0]),
}


def reference_paths(spec, horizon, steps, n_paths, measure, seed):
    """Prices path by path, one generator and one product per path."""
    dt = horizon / steps
    growth = spec.mu if measure == "physical" else np.full(spec.n, spec.rate)
    drift = (growth - 0.5 * spec.sigma**2) * dt
    vol = spec.sigma * math.sqrt(dt)
    lower = cholesky_with_tolerance(spec.corr)
    paths = []
    for i in range(n_paths):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        eps = rng.standard_normal((steps, spec.n)) @ lower.T
        prices = np.empty((steps + 1, spec.n))
        prices[0] = spec.s0
        prices[1:] = np.exp(np.log(spec.s0) + np.cumsum(drift + vol * eps, axis=0))
        paths.append(prices)
    return paths


def test_single_asset_identity_corr_is_valid():
    spec = MarketSpec.single(mu=0.0, sigma=0.7, rate=0.0)
    assert validate_market(spec) is spec


def test_perfect_correlation_is_rejected():
    spec = MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.2, 0.3), rho=1.0, rate=0.0)
    with pytest.raises(ValidationError, match="positive definite"):
        validate_market(spec)


def test_sim3_style_pair_is_valid():
    spec = MarketSpec.pair(mu=(0.03, 0.08), sigma=(0.55, 0.7), rho=0.2, rate=0.02)
    validate_market(spec)
    cov = covariance(spec)
    assert cov[0, 1] == pytest.approx(0.2 * 0.55 * 0.7)


@pytest.mark.parametrize("field,value", [
    ("sigma", [0.0]), ("sigma", [-0.1]), ("s0", [0.0]), ("s0", [-2.0]),
])
def test_nonpositive_parameters_rejected(field, value):
    kwargs = dict(n=1, mu=[0.0], sigma=[0.2], corr=[[1.0]], rate=0.0, s0=[1.0])
    kwargs[field] = value
    with pytest.raises(ValidationError):
        validate_market(MarketSpec(**kwargs))


def test_asymmetric_and_nonsquare_corr_rejected():
    bad = MarketSpec(n=2, mu=[0, 0], sigma=[0.2, 0.2],
                     corr=[[1.0, 0.3], [0.1, 1.0]], rate=0.0, s0=[1, 1])
    with pytest.raises(ValidationError, match="symmetric"):
        validate_market(bad)
    nonsquare = MarketSpec(n=2, mu=[0, 0], sigma=[0.2, 0.2],
                           corr=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], rate=0.0, s0=[1, 1])
    with pytest.raises(ValidationError):
        validate_market(nonsquare)


def test_correlated_normals_identity():
    draws = correlated_normals(np.eye(2), 40_000, seed=1)
    sample = np.corrcoef(draws.T)[0, 1]
    assert abs(sample) < 3.0 / math.sqrt(40_000)


def test_correlated_normals_sample_correlation():
    corr = [[1.0, 0.2], [0.2, 1.0]]
    draws = correlated_normals(corr, 1_000_000, seed=7)
    sample = np.corrcoef(draws.T)[0, 1]
    # standard error of a correlation estimate ~ (1 - rho^2) / sqrt(count)
    assert 0.197 <= sample <= 0.203


def test_correlated_normals_deterministic():
    corr = [[1.0, -0.4], [-0.4, 1.0]]
    a = correlated_normals(corr, 1000, seed=42)
    b = correlated_normals(corr, 1000, seed=42)
    np.testing.assert_array_equal(a, b)


def test_correlated_normals_cholesky_failure():
    with pytest.raises(ValidationError):
        correlated_normals([[1.0, 1.0], [1.0, 1.0]], 10, seed=0)


def test_zero_vol_limit_is_deterministic_drift():
    spec = MarketSpec.single(mu=0.05, sigma=1e-12, rate=0.0)
    for path in simulate_paths(spec, 1.0, 4, 5, measure="physical", seed=3):
        assert path.prices[-1, 0] == pytest.approx(math.exp(0.05), rel=1e-9)


def test_risk_neutral_discounted_price_is_martingale():
    # two correlated assets, one exact step to T; >= 1e5 paths, 4-se band
    spec = MarketSpec.pair(mu=(0.1, 0.05), sigma=(0.3, 0.5), rho=0.4,
                           rate=0.03, s0=(2.0, 1.0))
    paths = simulate_paths(spec, 2.0, 1, 100_000, measure="risk_neutral", seed=9)
    terminal = np.array([p.prices[-1] for p in paths])
    disc = math.exp(-0.03 * 2.0) * terminal
    se = disc.std(axis=0, ddof=1) / math.sqrt(disc.shape[0])
    assert np.all(np.abs(disc.mean(axis=0) - spec.s0) < 4.0 * se)


def test_physical_mean_log_growth_matches_nu():
    # nu = mu - sigma^2/2 = 0.04 with sigma = 0.7
    spec = MarketSpec.single(mu=0.285, sigma=0.7, rate=0.02)
    paths = simulate_paths(spec, 4.0, 1, 4000, measure="physical", seed=11)
    rates = np.array([math.log(p.prices[-1, 0]) / 4.0 for p in paths])
    se = rates.std(ddof=1) / math.sqrt(len(rates))
    assert abs(rates.mean() - 0.04) < 4.0 * se


def test_log_return_covariance_converges():
    spec = MarketSpec.pair(mu=(0.08, 0.02), sigma=(0.25, 0.4), rho=0.3,
                           rate=0.01, s0=(1.0, 1.0))
    steps = 200_000
    dt = 1.0 / 252.0
    path = simulate_paths(spec, steps * dt, steps, 1, seed=13)[0]
    rets = np.diff(np.log(path.prices), axis=0)
    sample = np.cov(rets.T, ddof=1)
    target = covariance(spec) * dt
    for i in range(2):
        for j in range(2):
            se = math.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / steps)
            assert abs(sample[i, j] - target[i, j]) < 4.0 * se


def test_paths_are_reproducible_and_anchored():
    spec = MarketSpec.pair(mu=(0.1, 0.0), sigma=(0.2, 0.3), rho=-0.2,
                           rate=0.02, s0=(3.0, 0.5))
    a = simulate_paths(spec, 1.0, 12, 3, seed=21)
    b = simulate_paths(spec, 1.0, 12, 3, seed=21)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.prices, pb.prices)
        np.testing.assert_array_equal(pa.prices[0], spec.s0)
        assert np.all(np.diff(pa.times) > 0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("steps,extra_paths,measure", [
    (1, 0, "physical"), (2000, 3, "risk_neutral"), (4096, 9, "physical"),
])
def test_simulate_paths_equals_the_per_path_loop(n, steps, extra_paths, measure):
    # all but the 1-step case span more than one block of paths
    spec = SPECS_BY_N[n]
    n_paths = _BLOCK_PATH_STEPS // steps + extra_paths if extra_paths else 5
    got = simulate_paths(spec, 2.5, steps, n_paths, measure=measure, seed=17)
    want = reference_paths(spec, 2.5, steps, n_paths, measure, seed=17)
    assert len(got) == n_paths
    for path, prices in zip(got, want):
        np.testing.assert_array_equal(path.prices, prices)
        np.testing.assert_array_equal(path.times, np.linspace(0.0, 2.5, steps + 1))


def test_path_index_stream_independent_of_n_paths():
    spec = MarketSpec.single(mu=0.05, sigma=0.3, rate=0.0)
    few = simulate_paths(spec, 1.0, 10, 2, seed=5)
    many = simulate_paths(spec, 1.0, 10, 6, seed=5)
    np.testing.assert_array_equal(few[1].prices, many[1].prices)

    # one partial block, against full blocks and a partial last block
    steps = 4096
    block = _BLOCK_PATH_STEPS // steps
    below = simulate_paths(spec, 1.0, steps, block - 1, seed=5)
    straddle = simulate_paths(spec, 1.0, steps, block + 2, seed=5)
    full = simulate_paths(spec, 1.0, steps, 2 * block, seed=5)
    for i, path in enumerate(below):
        np.testing.assert_array_equal(path.prices, straddle[i].prices)
        np.testing.assert_array_equal(path.prices, full[i].prices)
    for i in (block, block + 1):
        np.testing.assert_array_equal(straddle[i].prices, full[i].prices)
        assert not np.array_equal(full[i].prices, full[i - block].prices)


def test_price_path_validation():
    with pytest.raises(ValidationError):
        PricePath(times=[0.0, 1.0, 1.0], prices=[[1.0], [1.1], [1.2]])
    with pytest.raises(ValidationError):
        PricePath(times=[0.0, 1.0], prices=[[1.0], [-0.5]])


def test_simulate_paths_rejects_bad_arguments():
    spec = MarketSpec.single(mu=0.0, sigma=0.2, rate=0.0)
    with pytest.raises(ValidationError):
        simulate_paths(spec, -1.0, 10, 1)
    with pytest.raises(ValidationError):
        simulate_paths(spec, 1.0, 0, 1)
    with pytest.raises(ValidationError):
        simulate_paths(spec, 1.0, 10, 1, measure="martingale")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for horizon in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="horizon"):
                simulate_paths(spec, horizon, 10, 1)
        with pytest.raises(ValidationError, match="seed"):
            simulate_paths(spec, 1.0, 10, 1, seed=-1)


def test_spec_file_round_trip(tmp_path):
    spec = MarketSpec.pair(mu=(0.18125, 0.325), sigma=(0.55, 0.7), rho=0.2,
                           rate=0.02, s0=(1.0, 1.0))
    target = tmp_path / "market.cfg"
    save_market_spec(spec, str(target))
    loaded = load_market_spec(str(target))
    assert loaded.n == 2
    np.testing.assert_array_equal(loaded.mu, spec.mu)
    np.testing.assert_array_equal(loaded.sigma, spec.sigma)
    np.testing.assert_array_equal(loaded.corr, spec.corr)
    np.testing.assert_array_equal(loaded.s0, spec.s0)
    assert loaded.rate == spec.rate


def test_spec_file_errors_name_the_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 1\nmu 0.1\n")
    with pytest.raises(ValidationError, match="bad.cfg:2"):
        load_market_spec(str(bad))
    missing = tmp_path / "missing.cfg"
    missing.write_text("n = 1\nmu = 0.0\n")
    with pytest.raises(ValidationError, match="missing keys"):
        load_market_spec(str(missing))

"""Market spec validation and exact-lognormal path generation."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hindsight_options import (
    MarketSpec,
    PricePath,
    load_market_spec,
    save_market_spec,
    simulate_paths,
    validate_market,
)
from hindsight_options.errors import ValidationError
from hindsight_options.market import (_BLOCK_PATH_STEPS, _STREAM_PATHS, _price_blocks,
                                      cholesky_with_tolerance)

CORR3 = [[1.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, 1.0]]
SPECS_BY_N = {
    1: MarketSpec.single(mu=0.07, sigma=0.3, rate=0.02, s0=5.0),
    2: MarketSpec.pair(mu=(0.1, 0.05), sigma=(0.3, 0.5), rho=0.4, rate=0.03, s0=(2.0, 1.0)),
    3: MarketSpec(n=3, mu=[0.05, 0.08, 0.1], sigma=[0.2, 0.4, 0.6], corr=CORR3,
                  rate=0.01, s0=[1.0, 2.0, 3.0]),
}


def reference_paths(spec, horizon, steps, n_paths, measure, seed):
    """Prices path by path: path i is row i % C of the draws of stream (seed, i // C)."""
    dt = horizon / steps
    growth = spec.mu if measure == "physical" else np.full(spec.n, spec.rate)
    drift = (growth - 0.5 * spec.sigma**2) * dt
    vol = spec.sigma * math.sqrt(dt)
    lower = cholesky_with_tolerance(spec.corr)
    draws = {}
    paths = []
    for i in range(n_paths):
        chunk, row = divmod(i, _STREAM_PATHS)
        if chunk not in draws:
            rng = np.random.default_rng(np.random.SeedSequence((seed, chunk)))
            rows = min(_STREAM_PATHS, n_paths - chunk * _STREAM_PATHS)
            draws[chunk] = rng.standard_normal((rows, steps, spec.n))
        eps = draws[chunk][row] @ lower.T
        prices = np.empty((steps + 1, spec.n))
        prices[0] = spec.s0
        prices[1:] = np.exp(np.log(spec.s0) + np.cumsum(drift + vol * eps, axis=0))
        paths.append(prices)
    return paths


def test_spec_arrays_and_cached_factor_are_read_only():
    mu = np.array([0.05, 0.08, 0.1])
    corr = np.array(CORR3)
    spec = MarketSpec(n=3, mu=mu, sigma=[0.2, 0.4, 0.6], corr=corr, rate=0.01,
                      s0=[1.0, 2.0, 3.0])
    assert spec.lower is spec.lower
    np.testing.assert_array_equal(spec.lower, cholesky_with_tolerance(CORR3))
    for array in (spec.mu, spec.sigma, spec.corr, spec.s0, spec.lower):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    mu[0] = 0.5  # the caller's arrays are copied, not frozen
    corr[0, 1] = corr[1, 0] = 0.0
    assert spec.mu[0] == 0.05 and spec.corr[0, 1] == 0.3


@pytest.mark.parametrize("n", sorted(SPECS_BY_N))
def test_specs_compare_by_identity_and_hash(n):
    # Array fields have no one truth value, so == is identity at every n.
    spec = SPECS_BY_N[n]
    twin = MarketSpec(n=spec.n, mu=spec.mu, sigma=spec.sigma, corr=spec.corr,
                      rate=spec.rate, s0=spec.s0)
    assert (spec == spec) is True and (spec != spec) is False
    assert (spec == twin) is False and (spec != twin) is True
    assert hash(spec) == hash(spec) and len({spec, twin, spec}) == 2


def test_single_asset_identity_corr_is_valid():
    spec = MarketSpec.single(mu=0.0, sigma=0.7, rate=0.0)
    assert validate_market(spec) is spec


def test_perfect_correlation_is_rejected():
    with pytest.raises(ValidationError, match="positive definite"):
        MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.2, 0.3), rho=1.0, rate=0.0)


def test_sim3_style_pair_is_valid():
    spec = MarketSpec.pair(mu=(0.03, 0.08), sigma=(0.55, 0.7), rho=0.2, rate=0.02)
    validate_market(spec)
    cov = spec.sigma[:, None] * spec.corr * spec.sigma
    assert cov[0, 1] == pytest.approx(0.2 * 0.55 * 0.7)


@pytest.mark.parametrize("field,value", [
    ("sigma", [0.0]), ("sigma", [-0.1]), ("s0", [0.0]), ("s0", [-2.0]),
    ("sigma", [math.nan]), ("sigma", [math.inf]), ("mu", [math.nan]), ("mu", [-math.inf]),
    ("s0", [math.nan]), ("s0", [math.inf]), ("rate", math.nan), ("rate", math.inf),
    ("mu", [0.0, 0.1]), ("mu", ["x"]), ("n", 2.5),
    ("sigma", [1e300]), ("n", 0), ("n", None),
])
def test_nonpositive_parameters_rejected(field, value):
    kwargs = dict(n=1, mu=[0.0], sigma=[0.2], corr=[[1.0]], rate=0.0, s0=[1.0])
    kwargs[field] = value
    with pytest.raises(ValidationError):
        MarketSpec(**kwargs)


def test_sigma_is_refused_where_its_square_overflows():
    top = math.sqrt(np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert MarketSpec.single(mu=0.0, sigma=top, rate=0.0).sigma[0] == top
        for sigma in ([np.nextafter(top, math.inf)], [0.2, 1e300]):
            with pytest.raises(ValidationError, match="^sigma must be at most"):
                MarketSpec(n=len(sigma), mu=np.zeros(len(sigma)), sigma=sigma,
                           corr=np.eye(len(sigma)), rate=0.0, s0=np.ones(len(sigma)))


def test_asymmetric_and_nonsquare_corr_rejected():
    with pytest.raises(ValidationError, match="symmetric"):
        MarketSpec(n=2, mu=[0, 0], sigma=[0.2, 0.2],
                   corr=[[1.0, 0.3], [0.1, 1.0]], rate=0.0, s0=[1, 1])
    with pytest.raises(ValidationError):
        MarketSpec(n=2, mu=[0, 0], sigma=[0.2, 0.2],
                   corr=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], rate=0.0, s0=[1, 1])
    with pytest.raises(ValidationError, match="correlation matrix must be finite"):
        MarketSpec(n=1, mu=[0], sigma=[0.2], corr=[[math.nan]], rate=0.0, s0=[1])
    with pytest.raises(ValidationError, match="correlation matrix must be finite"):
        MarketSpec(n=2, mu=[0, 0], sigma=[0.2, 0.2],
                   corr=[[1.0, math.nan], [math.nan, 1.0]], rate=0.0, s0=[1, 1])
    with pytest.raises(ValidationError, match=r"^correlation entries must lie in \[-1, 1\]$"):
        MarketSpec.pair(mu=(0.0, 0.0), sigma=(0.2, 0.2), rho=1.5, rate=0.0)


@pytest.mark.filterwarnings("error")
def test_corr_symmetry_and_unit_diagonal_are_absolute_to_1e_12():
    # within numpy's default rtol of 1e-5, but beyond an absolute 1e-12
    with pytest.raises(ValidationError, match="^correlation matrix must be symmetric$"):
        MarketSpec(n=2, mu=[0, 0], sigma=[0.2, 0.2], corr=[[1.0, 0.5], [0.500004, 1.0]],
                   rate=0.0, s0=[1, 1])
    with pytest.raises(ValidationError, match="^correlation matrix must have a unit diagonal$"):
        MarketSpec(n=1, mu=[0], sigma=[0.2], corr=[[0.999991]], rate=0.0, s0=[1])
    for corr in ([[1.0 + 5e-13]], [[1.0 - 5e-13]]):
        assert MarketSpec(n=1, mu=[0], sigma=[0.2], corr=corr, rate=0.0, s0=[1]).n == 1
    near = MarketSpec(n=2, mu=[0, 0], sigma=[0.2, 0.2], corr=[[1.0, 0.5], [0.5 + 5e-13, 1.0]],
                      rate=0.0, s0=[1, 1])
    assert near.n == 2


def test_a_rate_that_is_not_a_number_is_refused():
    for rate in ("x", None, [0.01, 0.02]):
        with pytest.raises(ValidationError,
                           match=f"^rate must be a real number, got {re.escape(repr(rate))}$"):
            MarketSpec(n=1, mu=[0.0], sigma=[0.2], corr=[[1.0]], rate=rate, s0=[1.0])


_BAD = [math.nan, math.inf, -math.inf, 0.0, -0.5]


@st.composite
def spec_fields(draw):
    """Fields of a valid spec of 1-3 assets with up to two corruptions applied.

    Uncorrupted draws are valid, and so are some corrupted ones (a zero or
    negative drift or rate, a redrawn correlation), so both outcomes of the
    property are exercised often.
    """
    n = draw(st.integers(1, 3))

    def vector(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    fields = dict(n=n, mu=vector(st.floats(-1.0, 1.0)), sigma=vector(st.floats(0.01, 5.0)),
                  rate=draw(st.floats(-0.1, 0.1)), s0=vector(st.floats(0.01, 5.0)))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * (n + 1),
                               max_size=n * (n + 1)))).reshape(n, n + 1)
    cov = a @ a.T + 0.1 * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(cov))
    corr = d[:, None] * cov * d[None, :]
    np.fill_diagonal(corr, 1.0)
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["mu", "sigma", "s0", "rate", "corr", "n", "length",
                                     "asymmetric", "indefinite"]))
        if kind == "rate":
            fields["rate"] = draw(st.sampled_from(_BAD))
        elif kind in ("mu", "sigma", "s0"):
            values = fields[kind] = list(fields[kind])
            if values:  # a length corruption may have emptied it
                values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(_BAD))
        elif kind == "corr":
            i, j = draw(index), draw(index)
            corr[i, j] = corr[j, i] = draw(st.sampled_from(_BAD + [1.5]))
        elif kind == "n":
            fields["n"] = draw(st.sampled_from([0, n + 1, 2.5, math.nan]))
        elif kind == "length":
            name = draw(st.sampled_from(["mu", "sigma", "s0"]))
            fields[name] = list(fields[name])[:-1] if draw(st.booleans()) else [*fields[name], 1.0]
        elif kind == "asymmetric":
            corr[draw(index), draw(index)] += 0.5
        else:  # symmetric, unit diagonal, entries in [-1, 1]; often indefinite
            for i in range(n):
                for j in range(i):
                    corr[i, j] = corr[j, i] = draw(st.floats(-1.0, 1.0))
    fields["corr"] = corr
    return fields


@given(fields=spec_fields())
@settings(max_examples=300, deadline=None)
def test_every_constructed_spec_is_valid(fields):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = MarketSpec(**fields)
        except ValidationError:
            return
    assert validate_market(spec) is spec
    assert np.all(np.isfinite(spec.lower)) and not spec.lower.flags.writeable


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
    target = spec.sigma[:, None] * spec.corr * spec.sigma * dt
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


@pytest.mark.parametrize("steps,n_paths", [
    # chunk boundaries inside one block of paths
    (1, _STREAM_PATHS - 1), (1, _STREAM_PATHS + 1), (1, 2 * _STREAM_PATHS + 3),
    # block boundaries inside one chunk
    (4096, 3 * (_BLOCK_PATH_STEPS // 4096) + 1),
    # both: the second block starts inside a chunk that spans the boundary
    (3, _BLOCK_PATH_STEPS // 3 + _STREAM_PATHS + 5),
])
def test_simulate_paths_follows_the_chunked_streams(steps, n_paths):
    spec = SPECS_BY_N[2]
    got = simulate_paths(spec, 1.5, steps, n_paths, seed=29)
    want = reference_paths(spec, 1.5, steps, n_paths, "physical", seed=29)
    assert len(got) == n_paths
    for path, prices in zip(got, want):
        np.testing.assert_array_equal(path.prices, prices)


def test_path_zero_draws_the_one_path_stream():
    # path 0 of every seed draws what SeedSequence((seed, 0)) alone does, so
    # one-path outputs are the same as with one stream per path index
    spec = SPECS_BY_N[3]
    for seed, steps in ((0, 1), (17, 50), (123456789, 4096)):
        got = simulate_paths(spec, 2.0, steps, 3, seed=seed)[0]
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        eps = rng.standard_normal((steps, spec.n)) @ spec.lower.T
        dt = 2.0 / steps
        log_steps = (spec.mu - 0.5 * spec.sigma**2) * dt + spec.sigma * math.sqrt(dt) * eps
        np.testing.assert_array_equal(
            got.prices[1:], np.exp(np.log(spec.s0) + np.cumsum(log_steps, axis=0)))


@pytest.mark.parametrize("n", [1, 3])
def test_price_blocks_take_one_length_per_step(n):
    # A (steps, 1) array of equal lengths gives the bits of the one uniform
    # length; uneven lengths give each step its own exact transition.
    spec = SPECS_BY_N[n]
    uniform = np.concatenate([b for _, b in _price_blocks(spec, 0.25, 8, 40, "physical", 3)])
    each = np.concatenate([b for _, b in _price_blocks(spec, np.full((8, 1), 0.25), 8, 40,
                                                       "physical", 3)])
    np.testing.assert_array_equal(each, uniform)
    dt = np.array([[2.5], [0.5], [7.0]])
    (_, got), = _price_blocks(spec, dt, 3, 1, "risk_neutral", 5)
    rng = np.random.default_rng(np.random.SeedSequence((5, 0)))
    eps = rng.standard_normal((3, spec.n)) @ spec.lower.T
    log_steps = (spec.rate - 0.5 * spec.sigma**2) * dt + spec.sigma * np.sqrt(dt) * eps
    np.testing.assert_array_equal(got[0, 1:],
                                  np.exp(np.log(spec.s0) + np.cumsum(log_steps, axis=0)))


@pytest.mark.filterwarnings("error")
def test_overflowed_prices_are_refused_without_a_warning():
    spec = MarketSpec.single(mu=50.0, sigma=0.2, rate=0.0)
    with pytest.raises(ValidationError, match="simulated prices"):
        simulate_paths(spec, 20.0, 4, 2, seed=1)


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
    with pytest.raises(ValidationError, match="^times and prices must align row-for-row$"):
        PricePath(times=[0.0, 1.0], prices=[[1.0], [1.1], [1.2]])


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
        with pytest.raises(ValidationError, match="^n_paths must be >= 1$"):
            simulate_paths(spec, 1.0, 10, 0)
        # a horizon of 5e-324 over two steps cannot give a grid that increases
        with pytest.raises(ValidationError, match="^time grid must start at 0 and strictly"):
            simulate_paths(spec, 5e-324, 2, 1)


def test_spec_file_round_trip(tmp_path):
    spec = MarketSpec.pair(mu=(0.18125, 0.325), sigma=(0.55, 0.7), rho=0.2,
                           rate=0.02, s0=(1.0, 1.0))
    target = tmp_path / "market.cfg"
    save_market_spec(spec, str(target))
    # comment lines and trailing comments are skipped
    target.write_text("# a pair from sim3\n" + target.read_text().replace("\n", "  # note\n", 1))
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
    ragged = tmp_path / "ragged.cfg"
    ragged.write_text("n = 2\nmu = 0 0\nsigma = 0.2 0.2\ncorr = 1 0.3\ncorr = 0.3\n"
                      "rate = 0\ns0 = 1 1\n")
    with pytest.raises(ValidationError, match="corr"):
        load_market_spec(str(ragged))
    negative = tmp_path / "bad.spec"
    negative.write_text("n = 1\nmu = 0\nsigma = -0.2\ncorr = 1\nrate = 0\ns0 = 1\n")
    with pytest.raises(ValidationError) as err:
        load_market_spec(str(negative))
    assert str(err.value) == f"{negative}: volatilities must be strictly positive"
    good = "n = 1\nmu = 0\nsigma = 0.2\ncorr = 1\nrate = 0\ns0 = 1\n"
    for text, message in (
            (good.replace("mu = 0", "mu = 0 abc"), f"{bad}:2: could not convert string"),
            (good.replace("mu = 0", "mu ="), f"{bad}:2: no values for key 'mu'"),
            (good + "rate = 0.01\n", f"{bad}: key 'rate' given 2 times"),
            (good.replace("n = 1", "n = 2").replace("mu = 0", "mu = 0 0")
             .replace("sigma = 0.2", "sigma = 0.2 0.2").replace("corr = 1", "corr = 1 0")
             .replace("s0 = 1", "s0 = 1 1"), f"{bad}: expected 2 corr rows, got 1")):
        bad.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_market_spec(str(bad))
        assert str(err.value).startswith(message)

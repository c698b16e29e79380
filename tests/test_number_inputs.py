"""One number policy for the whole API.

Every public entry point reads each caller value through one of the readers
of ``market.py`` (``_real``, ``_integer``, ``_seed`` and ``_reals``): a str,
bytes, bool or ``np.bool_`` is not a number, alone or as an entry, and a
value that is not a number raises ``ValidationError``, never a bare
``TypeError`` and never a silent conversion.
"""

import numpy as np
import pytest

from hindsight_options import (
    LatticeSpec,
    LatticeState,
    MarketSpec,
    PricePath,
    PriceTable,
    RebalancingRule,
    SimulationConfig,
    demon_simulation,
    discrete_backtest,
    hedge_path,
    implied_vols,
    intrinsic_value,
    lattice_payoff,
    mc_price,
    price_levered,
    price_time0_unlevered,
    shannon_spec,
    simulate_paths,
    time0_unlevered_excess_growth,
)
from hindsight_options.errors import ValidationError
from hindsight_options.hindsight import corr_solve

SPEC = MarketSpec.single(0.05, 0.2, 0.02)
PATH = simulate_paths(SPEC, 1.0, 4, 1, seed=1)[0]
TABLE = PriceTable(times=np.array([0.0, 1.0, 2.0]), prices=np.array([[1.0], [2.0], [1.0]]),
                   columns=("px",))


def _config(**fields):
    return SimulationConfig(**{"spec": SPEC, "T": 5.0, "warmup": 1.0, "steps_per_year": 12,
                               "n_paths": 2, "seed": 0, **fields})


NOT_NUMBERS = {
    # read as numbers by numpy or float() before the one policy
    "MarketSpec.single sigma str": lambda: MarketSpec.single(0.05, "0.2", 0.02),
    "MarketSpec.single sigma bool": lambda: MarketSpec.single(0.05, True, 0.02),
    "MarketSpec.single rate str": lambda: MarketSpec.single(0.05, 0.2, "0.02"),
    "MarketSpec n bool": lambda: MarketSpec(n=True, mu=[0.05], sigma=[0.2], corr=[[1.0]],
                                            rate=0.02, s0=[1.0]),
    "LatticeSpec u str": lambda: LatticeSpec("2", 0.5, 0.0, 3),
    "LatticeSpec n_steps bool": lambda: LatticeSpec(2, 0.5, 0.0, True),
    "LatticeState k bool": lambda: LatticeState(True, 2),
    "lattice_payoff j bool": lambda: lattice_payoff(shannon_spec(3), True),
    "RebalancingRule b str": lambda: RebalancingRule(b="0.5"),
    "RebalancingRule b bool": lambda: RebalancingRule(b=True),
    "discrete_backtest b bool": lambda: discrete_backtest(TABLE, True),
    "time0_unlevered_excess_growth T bool": lambda: time0_unlevered_excess_growth(0.3, True),
    "mc_price seed 1.5": lambda: mc_price(SPEC, 1.1, 0.5, 1.0, n_paths=1000, seed=1.5),
    "simulate_paths seed 1.5": lambda: simulate_paths(SPEC, 1.0, 4, 1, seed=1.5),
    "demon_simulation seed 1.5": lambda: demon_simulation(10, 0.5, 1.5),
    "PricePath str entries": lambda: PricePath(times=["0", "1"], prices=["1", "2"]),
    "corr_solve str entry": lambda: corr_solve(SPEC, ["1.5"]),
    # escaped as a bare TypeError before the one policy
    "mc_price t str": lambda: mc_price(SPEC, 1.1, "0.5", 1.0, n_paths=1000),
    "simulate_paths horizon str": lambda: simulate_paths(SPEC, "1", 4, 1),
    "simulate_paths steps 2.5": lambda: simulate_paths(SPEC, 1.0, 2.5, 1),
    "hedge_path t_start str": lambda: hedge_path(SPEC, PATH, "0.5", 1.0),
    "SimulationConfig T str": lambda: _config(T="5"),
    "SimulationConfig n_paths 2.5": lambda: _config(n_paths=2.5),
    "discrete_backtest interval 1.5": lambda: discrete_backtest(TABLE, [0.5],
                                                                rebalance_interval=1.5),
    "demon_simulation p str": lambda: demon_simulation(10, "0.5", 1),
    "price_time0_unlevered sigma str": lambda: price_time0_unlevered("0.3", 1.0),
    "LatticeSpec.crr sigma str": lambda: LatticeSpec.crr("0.3", 0.0, 1.0, 3),
    # refused before the one policy too
    "price_levered price str": lambda: price_levered(SPEC, "1.1", 0.5, 1.0),
    "price_levered t bool": lambda: price_levered(SPEC, 1.1, True, 1.0),
    "intrinsic_value mode str": lambda: intrinsic_value(SPEC, 1.1, 0.5, "1"),
}


@pytest.mark.parametrize("call", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_a_value_that_is_not_a_number_is_refused(call):
    with pytest.raises(ValidationError):
        call()


# a Python int beyond float64, which float() and numpy refuse with a bare OverflowError
BEYOND_FLOAT64 = {
    "price_levered t": lambda: price_levered(SPEC, 1.1, 10**400, 2.0),
    "price_levered price entry": lambda: price_levered(SPEC, [10**400], 1.0, 2.0),
    "MarketSpec.single rate": lambda: MarketSpec.single(0.05, 0.2, 10**400),
    "LatticeSpec u": lambda: LatticeSpec(u=10**400, d=0.5, r_per=0.0, n_steps=3),
    "implied_vols s": lambda: implied_vols(2.0, 10**400, 1.0, 1.0, 2.0, 0.0),
}


@pytest.mark.parametrize("call", BEYOND_FLOAT64.values(), ids=BEYOND_FLOAT64)
def test_an_int_beyond_float64_is_refused(call):
    with pytest.raises(ValidationError, match="within the range of float64$"):
        call()


def test_a_whole_float_count_is_an_integer():
    # 1e5 is the integer 100,000: the run is the one an int count gives, field for field
    assert (mc_price(SPEC, 1.1, 0.5, 1.0, n_paths=1e5, seed=3)
            == mc_price(SPEC, 1.1, 0.5, 1.0, n_paths=100_000, seed=3))
    assert _config(n_paths=2.0, seed=1.0) == _config(n_paths=2, seed=1)


@pytest.mark.parametrize("seed", [-1, -1.0, np.int64(-1)], ids=["int", "float", "int64"])
def test_every_seed_is_refused_below_zero_with_one_message(seed):
    for call in (lambda: mc_price(SPEC, 1.1, 0.5, 1.0, n_paths=1000, seed=seed),
                 lambda: simulate_paths(SPEC, 1.0, 4, 1, seed=seed),
                 lambda: _config(seed=seed),
                 lambda: demon_simulation(10, 0.5, seed)):
        with pytest.raises(ValidationError, match="^seed must be nonnegative$"):
            call()

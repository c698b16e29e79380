"""Pricing, replication, and simulation of the hindsight allocation option.

The option pays the final wealth of the best constant-rebalanced portfolio
chosen in hindsight.  The package covers the continuous-time market (one or
many correlated lognormal assets), the binomial lattice, self-financing
replication, and an independent Monte Carlo oracle for every closed form.
"""

from .errors import IrrationalPriceError, ValidationError
from .hindsight import (
    RebalancingRule,
    best_rule,
    intrinsic_value,
    kelly_rule,
    log_intrinsic_value,
    wealth_of_rule,
    z_score,
)
from .lattice import (
    DemonLedger,
    LatticeSpec,
    LatticeState,
    demon_simulation,
    hedge_lattice_path,
    induction_price_table,
    lattice_best_rule,
    lattice_log_price,
    lattice_payoff,
    lattice_price,
    shannon_spec,
)
from .market import (
    MarketSpec,
    PricePath,
    covariance,
    load_market_spec,
    save_market_spec,
    simulate_paths,
    validate_market,
)
from .mc import McEstimate, mc_price, mc_prices
from .pricing import (
    GreeksReport,
    ImpliedVolRoots,
    Quote,
    excess_growth_bound,
    greeks,
    implied_vols,
    log_price_levered,
    log_price_unlevered,
    min_rational_price,
    multi_delta,
    price_levered,
    price_time0_unlevered,
    price_unlevered,
    time0_unlevered_excess_growth,
    unlevered_terms,
)
from .replication import (
    BacktestResult,
    HedgeLedger,
    PriceTable,
    SimulationConfig,
    SimulationResult,
    discrete_backtest,
    hedge_path,
    load_price_table,
    run_growth_simulation,
    scenario_config,
    scenario_spec,
)

__version__ = "0.1.0"

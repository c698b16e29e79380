"""Self-financing hedging, long-horizon growth simulations, and backtesting.

The levered option is replicated by betting the current hindsight-optimal
fractions b(S, t): a $1 account opened at t0 and rebalanced continuously ends
at the deterministic fraction V_T*/C(S_{t0}, t0) of the hindsight-optimal
wealth.  On a discrete grid the capture error shrinks like the square root of
the step size; :func:`hedge_path` builds the step-by-step ledger and
:func:`run_growth_simulation` reproduces the long-horizon experiments where
the account value tracks the quoted option price after a buy-in delay.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ValidationError
from .hindsight import kelly_rule
from .market import (
    MarketSpec,
    PricePath,
    _check_path_args,
    _price_blocks,
    cholesky_with_tolerance,
    validate_market,
)
from .pricing import norm_cdf

_FD_REL_STEP = 1e-5  # central-difference step for unlevered hedge deltas
_GRID_TOL = 1e-9


@dataclass(frozen=True)
class HedgeLedger:
    """Time series of a self-financing account: wealth, fractions, shares, cash.

    The final row carries the liquidated position (all cash, no shares).
    """

    times: np.ndarray
    wealth: np.ndarray
    fractions: np.ndarray
    shares: np.ndarray
    cash: np.ndarray


@dataclass(frozen=True)
class SimulationConfig:
    """Scenario settings for a long-horizon growth experiment."""

    spec: MarketSpec
    T: float
    warmup: float
    steps_per_year: int
    n_paths: int
    seed: int
    scenario: str = "custom"

    def __post_init__(self) -> None:
        if not 0 < self.warmup < self.T < math.inf:
            raise ValidationError("need 0 < warmup < T, with T finite")
        if self.steps_per_year < 1 or self.n_paths < 1:
            raise ValidationError("steps_per_year and n_paths must be >= 1")


@dataclass(frozen=True)
class SimulationResult:
    """Per-path ledgers plus the growth summary of one scenario run."""

    config: SimulationConfig
    ledgers: list[HedgeLedger]
    terminal_wealth: np.ndarray
    cagr: np.ndarray  # continuously compounded, log(W_T)/T per path
    kelly_fractions: np.ndarray
    kelly_growth_rate: float

    @property
    def mean_cagr(self) -> float:
        return float(np.mean(self.cagr))


@dataclass(frozen=True)
class PriceTable:
    """Chronological price records ingested from CSV."""

    times: np.ndarray  # years since the first record
    prices: np.ndarray  # shape (rows, assets)
    columns: tuple[str, ...]


@dataclass(frozen=True)
class BacktestResult:
    times: np.ndarray
    wealth: np.ndarray
    cagr: float  # annually compounded, (V_end/V_0)^(1/years) - 1
    ruined: bool = False
    ruin_index: int | None = None


def scenario_spec(name: str) -> MarketSpec:
    """Market parameters of the three canonical growth experiments."""
    if name == "sim1":  # growth 4%/yr, vol 70%
        return MarketSpec.single(mu=0.04 + 0.5 * 0.7**2, sigma=0.7, rate=0.02)
    if name == "sim2":  # growth 8%/yr, vol 17%
        return MarketSpec.single(mu=0.08 + 0.5 * 0.17**2, sigma=0.17, rate=0.02)
    if name == "sim3":  # bivariate, growth (3%, 8%), vol (55%, 70%), rho 0.2
        return MarketSpec.pair(mu=(0.03 + 0.5 * 0.55**2, 0.08 + 0.5 * 0.7**2),
                               sigma=(0.55, 0.7), rho=0.2, rate=0.02)
    raise ValidationError(f"unknown scenario {name!r}")


def scenario_config(name: str, *, T: float = 200.0, warmup: float = 5.0,
                    steps_per_year: int = 12, n_paths: int = 100,
                    seed: int = 0) -> SimulationConfig:
    return SimulationConfig(spec=scenario_spec(name), T=T, warmup=warmup,
                            steps_per_year=steps_per_year, n_paths=n_paths,
                            seed=seed, scenario=name)


def _grid_index(times: np.ndarray, value: float) -> int:
    idx = int(np.searchsorted(times, value))
    for candidate in (idx - 1, idx, idx + 1):
        if 0 <= candidate < len(times) and abs(times[candidate] - value) <= _GRID_TOL * max(1.0, abs(value)):
            return candidate
    raise ValidationError(f"time {value} is not a grid point of the path")


def _whitened_scores(spec: MarketSpec, lower: np.ndarray, times: np.ndarray,
                     prices: np.ndarray) -> np.ndarray:
    """w = L^{-1} z at every grid point (t > 0), as columns of shape (n, points).

    ``prices`` has shape (..., len(times), n); the points are its rows in C order.
    """
    z = ((np.log(prices / spec.s0) - (spec.rate - 0.5 * spec.sigma**2) * times[:, None])
         / (spec.sigma * np.sqrt(times)[:, None]))
    return solve_triangular(lower, z.reshape(-1, spec.n).T, lower=True)


def _levered_fraction_series(spec: MarketSpec, lower: np.ndarray, times: np.ndarray,
                             prices: np.ndarray) -> np.ndarray:
    """b(S, t) at every grid point; same shape as ``prices`` (..., len(times), n)."""
    w = _whitened_scores(spec, lower, times, prices)
    y = solve_triangular(lower.T, w, lower=False)
    return (y / spec.sigma[:, None]).T.reshape(prices.shape) / np.sqrt(times)[:, None]


def _log_levered_series(spec: MarketSpec, lower: np.ndarray, times: np.ndarray,
                        prices: np.ndarray, T: float) -> np.ndarray:
    """log C(S_t, t) at every grid point, assembled in log space; shape (..., len(times))."""
    w = _whitened_scores(spec, lower, times, prices)
    quad = np.sum(w * w, axis=0).reshape(prices.shape[:-1])
    return 0.5 * spec.n * np.log(T / times) + spec.rate * times + 0.5 * quad


def _unlevered_price_grid(spec: MarketSpec, t: np.ndarray, s: np.ndarray,
                          T: float) -> np.ndarray:
    """Unlevered price over aligned arrays of states with 0 < t < T."""
    sigma = float(spec.sigma[0])
    r = spec.rate
    s0 = float(spec.s0[0])
    z = (np.log(s / s0) - (r - 0.5 * sigma * sigma) * t) / (sigma * np.sqrt(t))
    a = -z * np.sqrt(t / (T - t))
    b = a + sigma * T / np.sqrt(T - t)
    ratio = np.sqrt(T / t)
    log_c = 0.5 * np.log(T / t) + r * t + 0.5 * z * z
    term1 = np.exp(r * t) * norm_cdf(a)
    term2 = np.exp(log_c) * (norm_cdf(a * ratio + sigma * np.sqrt(t * T / (T - t)))
                             - norm_cdf(a * ratio))
    term3 = (s / s0) * norm_cdf(sigma * np.sqrt(T - t) - b)
    return term1 + term2 + term3


def _unlevered_fraction_series(spec: MarketSpec, times: np.ndarray,
                               prices: np.ndarray, T: float) -> np.ndarray:
    """delta * S / C from central differences of the unlevered price.

    The expired point t = T (if present) gets a zero fraction; no trade
    happens there anyway.
    """
    fractions = np.zeros((len(times), 1))
    live = times < T
    t = times[live]
    s = prices[live, 0]
    h = _FD_REL_STEP * s
    delta = (_unlevered_price_grid(spec, t, s + h, T)
             - _unlevered_price_grid(spec, t, s - h, T)) / (2.0 * h)
    fractions[live, 0] = delta * s / _unlevered_price_grid(spec, t, s, T)
    return fractions


def _close_positions(wealth: np.ndarray, fractions: np.ndarray,
                     prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shares and cash held at each grid point, liquidating the final one.

    Broadcasts over leading path axes.  Zeroes the final row of ``fractions``
    in place: the account ends all in cash.
    """
    shares = fractions * wealth[..., None] / prices
    cash = wealth * (1.0 - np.sum(fractions, axis=-1))
    fractions[..., -1, :] = 0.0
    shares[..., -1, :] = 0.0
    cash[..., -1] = wealth[..., -1]
    return shares, cash


def hedge_path(spec: MarketSpec, path: PricePath, t_start: float, T: float,
               mode: str = "levered") -> HedgeLedger:
    """Run the replicating strategy along one simulated path over [t_start, T].

    Starts with $1.  Levered mode bets the hindsight-optimal fractions; the
    terminal wealth approximates V_T*/C(S_{t_start}, t_start) as the grid
    refines.  Unlevered mode (one asset) bets delta * S / C with delta from
    central finite differences of the unlevered price.  The hedge trades on
    the path's own grid; t_start and T must be grid points.
    """
    validate_market(spec)
    if t_start <= 0:
        raise ValidationError("t_start must be positive")
    if t_start >= T:
        raise ValidationError("need t_start < T")
    i0 = _grid_index(path.times, t_start)
    i1 = _grid_index(path.times, T)
    times = path.times[i0:i1 + 1]
    prices = path.prices[i0:i1 + 1]
    if mode == "levered":
        lower = cholesky_with_tolerance(spec.corr)
        fractions = _levered_fraction_series(spec, lower, times, prices)
    elif mode == "unlevered":
        if spec.n != 1:
            raise ValidationError("unlevered hedging is defined for one asset")
        fractions = _unlevered_fraction_series(spec, times, prices, T)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    rel = prices[1:] / prices[:-1] - 1.0
    growth = np.exp(spec.rate * np.diff(times)) - 1.0
    risky = np.sum(fractions[:-1] * rel, axis=1)
    bond = (1.0 - np.sum(fractions[:-1], axis=1)) * growth
    wealth = np.empty(len(times))
    wealth[0] = 1.0
    wealth[1:] = np.cumprod(1.0 + risky + bond)
    shares, cash = _close_positions(wealth, fractions, prices)
    return HedgeLedger(times=times, wealth=wealth, fractions=fractions,
                       shares=shares, cash=cash)


def run_growth_simulation(config: SimulationConfig) -> SimulationResult:
    """Long-horizon experiment: hold the market, then buy the levered option.

    During the warmup (the price blows up as t -> 0+, hence the delay) the
    account holds one share (one asset) or an equal-dollar basket.  At the
    warmup it is swapped into the option at the quoted price, after which the
    account tracks the price: W_t = W_warmup * C(S_t, t) / C(S_warmup, warmup).
    The reported CAGR is continuously compounded and concentrates on the
    growth-optimal rate as T grows.

    Paths are drawn and evaluated in blocks of a fixed path-step budget, so
    memory beyond the ledgers stays bounded; path i still draws from its own
    (seed, i) stream and equals path i of ``simulate_paths``.  The ledgers are
    row views of shared arrays of shape (n_paths, grid points[, n]).
    """
    spec = validate_market(config.spec)
    steps = round(config.T * config.steps_per_year)
    _check_path_args(config.T, steps, config.n_paths, "physical", config.seed)
    times = np.linspace(0.0, config.T, steps + 1)
    i_buy = _grid_index(times, config.warmup)
    after = times[i_buy:]
    lower = cholesky_with_tolerance(spec.corr)
    basket_shares = (1.0 / spec.n) / spec.s0
    kelly, growth_rate = kelly_rule(spec)

    wealth = np.empty((config.n_paths, steps + 1))
    fractions = np.empty((config.n_paths, steps + 1, spec.n))
    shares = np.empty_like(fractions)
    cash = np.empty_like(wealth)
    for first, prices in _price_blocks(spec, lower, config.T, steps, config.n_paths,
                                       "physical", config.seed):
        rows = slice(first, first + len(prices))
        w, f = wealth[rows], fractions[rows]
        w[:, :i_buy + 1] = prices[:, :i_buy + 1] @ basket_shares
        log_c = _log_levered_series(spec, lower, after, prices[:, i_buy:], config.T)
        w[:, i_buy:] = w[:, i_buy, None] * np.exp(log_c - log_c[:, :1])
        f[:, :i_buy] = basket_shares * prices[:, :i_buy] / w[:, :i_buy, None]
        f[:, i_buy:] = _levered_fraction_series(spec, lower, after, prices[:, i_buy:])
        shares[rows], cash[rows] = _close_positions(w, f, prices)

    ledgers = [HedgeLedger(times=times, wealth=wealth[p], fractions=fractions[p],
                           shares=shares[p], cash=cash[p])
               for p in range(config.n_paths)]
    terminal = wealth[:, -1].copy()
    cagr = np.log(terminal) / config.T
    return SimulationResult(config=config, ledgers=ledgers, terminal_wealth=terminal,
                            cagr=cagr, kelly_fractions=kelly.b,
                            kelly_growth_rate=growth_rate)


def discrete_backtest(table: PriceTable, b, rebalance_interval: int = 1,
                      rate: float = 0.0) -> BacktestResult:
    """Fixed-fraction rebalancing over ingested prices at a fixed interval.

    Between rebalances (every ``rebalance_interval`` rows) the update is

        V_{k+1} = V_k [1 + sum_i b_i (S_{k+1,i}/S_{k,i} - 1) + (1 - sum b_i) r],

    with ``rate`` the simple rate per rebalance interval.  Levered fractions
    can bankrupt the account on a discrete interval; the series is then
    truncated at the last positive value and flagged as ruined.  CAGR is
    annually compounded over the elapsed calendar span.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if rebalance_interval < 1:
        raise ValidationError("rebalance_interval must be >= 1")
    prices = table.prices[::rebalance_interval]
    times = table.times[::rebalance_interval]
    if prices.shape[0] < 2:
        raise ValidationError("need at least two rebalance points")
    if b.shape != (prices.shape[1],):
        raise ValidationError(f"expected {prices.shape[1]} fractions, got {b.shape[0]}")

    rel = prices[1:] / prices[:-1] - 1.0
    growth = 1.0 + rel @ b + (1.0 - float(np.sum(b))) * rate
    wealth = np.concatenate([[1.0], np.cumprod(growth)])
    ruined = bool(np.any(growth <= 0.0))
    ruin_index = None
    if ruined:
        ruin_index = int(np.argmax(growth <= 0.0)) + 1
        wealth = wealth[:ruin_index]
        times = times[:ruin_index]
        cagr = float("nan")
    else:
        years = times[-1] - times[0]
        if years <= 0:
            raise ValidationError("price table spans no time")
        cagr = float(wealth[-1] ** (1.0 / years) - 1.0)
    return BacktestResult(times=times, wealth=wealth, cagr=cagr,
                          ruined=ruined, ruin_index=ruin_index)


def load_price_table(path: str) -> PriceTable:
    """Read a chronological CSV: header row, then date-or-time plus prices.

    Column 1 is an ISO date or a numeric time in years; columns 2..n+1 are
    prices.  Parse failures report the exact row and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2:
        raise ValidationError(f"{path}:1: need a time column and at least one price column")
    n_cols = len(header)

    raw_times: list[float] = []
    rows: list[list[float]] = []
    base_date: dt.date | None = None
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

    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least two data rows")
    times = np.asarray(raw_times)
    if np.any(np.diff(times) <= 0):
        bad = int(np.argmax(np.diff(times) <= 0)) + 3  # +2 data offset, +1 next row
        raise ValidationError(f"{path}:{bad}: rows must be in increasing time order")
    return PriceTable(times=times - times[0], prices=np.asarray(rows),
                      columns=tuple(header[1:]))


def format_ledger_csv(ledger: HedgeLedger) -> str:
    """A ledger as CSV text: time, wealth, cash, then fraction_i and shares_i.

    Cells are shortest round-trip float reprs, one row per grid point.
    """
    n = ledger.fractions.shape[1]
    header = (["time", "wealth", "cash"]
              + [f"fraction_{i + 1}" for i in range(n)]
              + [f"shares_{i + 1}" for i in range(n)])
    table = np.column_stack([ledger.times, ledger.wealth, ledger.cash,
                             ledger.fractions, ledger.shares])
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"


def write_ledger_csv(ledger: HedgeLedger, path: str) -> None:
    """Write :func:`format_ledger_csv` of a ledger to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_ledger_csv(ledger))

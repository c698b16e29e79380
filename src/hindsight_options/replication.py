"""Self-financing hedging, long-horizon growth simulations, and backtesting.

The levered option is replicated by betting the current hindsight-optimal
fractions b(S, t): a $1 account opened at t0 and rebalanced continuously ends
at the deterministic fraction V_T*/C(S_{t0}, t0) of the hindsight-optimal
wealth.  On a discrete grid the capture error shrinks like the square root of
the step size; :func:`hedge_path` builds the step-by-step ledger and
:func:`run_growth_simulation` reproduces the long-horizon experiments where
the account value tracks the quoted option price after a buy-in delay.  A
growth run draws two exact increments per path, to the warmup and on to
expiry, since its summary reads S at those two points alone; it keeps no
accounts, and growth path i is not path i of ``simulate_paths``.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .errors import ValidationError
from .hindsight import _check_mode, _fractions, _log_levered, _representable, kelly_rule
from .market import MarketSpec, PricePath, _integer, _price_blocks, _real, _reals, _seed
from .pricing import _unlevered_fractions

_GRID_TOL = 1e-9


@dataclass(frozen=True, eq=False)
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
    """Scenario settings for a long-horizon growth experiment.

    ``steps_per_year`` has no effect on the run, which builds no grid; it is
    kept, and still checked to be >= 1, so that existing configs and argvs run.
    """

    spec: MarketSpec
    T: float
    warmup: float
    steps_per_year: int
    n_paths: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("T", "warmup"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        for name in ("steps_per_year", "n_paths"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "seed", _seed(self.seed))
        if not 0 < self.warmup < self.T < math.inf:
            raise ValidationError("need 0 < warmup < T, with T finite")
        if self.steps_per_year < 1 or self.n_paths < 1:
            raise ValidationError("steps_per_year and n_paths must be >= 1")


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """The growth summary of one scenario run: one terminal wealth and CAGR per path."""

    terminal_wealth: np.ndarray
    cagr: np.ndarray  # continuously compounded, log(W_T)/T per path
    kelly_fractions: np.ndarray
    kelly_growth_rate: float

    @property
    def mean_cagr(self) -> float:
        return float(np.mean(self.cagr))


@dataclass(frozen=True, eq=False)
class PriceTable:
    """Chronological price records ingested from CSV."""

    times: np.ndarray  # years since the first record
    prices: np.ndarray  # shape (rows, assets)
    columns: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class BacktestResult:
    """Wealth of a fixed-fraction backtest; ``cagr`` is NaN on a ruined account.

    The CLI writes that NaN as JSON ``null``.
    """

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
                            seed=seed)


def _grid_index(times: np.ndarray, value: float) -> int:
    """Index of the grid time nearest ``value``, if it lies within the tolerance.

    On a strictly increasing grid the nearest time is one of the two that
    bracket ``value``.
    """
    idx = int(np.searchsorted(times, value))
    nearest = min((i for i in (idx - 1, idx) if 0 <= i < len(times)),
                  key=lambda i: abs(times[i] - value))
    if abs(times[nearest] - value) <= _GRID_TOL * max(1.0, abs(value)):
        return nearest
    raise ValidationError(f"time {value} is not a grid point of the path")


def hedge_path(spec: MarketSpec, path: PricePath, t_start: float, T: float,
               mode: str = "levered") -> HedgeLedger:
    """Run the replicating strategy along one simulated path over [t_start, T].

    Starts with $1.  Levered mode bets the hindsight-optimal fractions; the
    terminal wealth approximates V_T*/C(S_{t_start}, t_start) as the grid
    refines.  Unlevered mode (one asset) bets S (dP/dS) / P, the analytic
    delta of the unlevered price P in log space, so it stays finite on states
    whose price overflows.  In unlevered mode only, a fraction f for which
    1 - f rounds to 1 is held as zero, since its share count can be subnormal.
    The expired point t = T is never traded.  A levered fraction that
    overflows float64 before T raises :class:`ValidationError`, and so does a
    wealth (a bond growth e^{r dt} beyond float64, say) or a share count that
    does.  The hedge trades on the path's own grid; t_start and T must be
    grid points, each matched to the nearest grid time within 1e-9 max(1, |t|).
    """
    t_start, T = _real(t_start, "t_start"), _real(T, "T")
    if t_start <= 0:
        raise ValidationError("t_start must be positive")
    if t_start >= T:
        raise ValidationError("need t_start < T")
    i0 = _grid_index(path.times, t_start)
    i1 = _grid_index(path.times, T)
    times = path.times[i0:i1 + 1]
    prices = path.prices[i0:i1 + 1]
    _check_mode(spec, mode)
    fractions = np.zeros((len(times), spec.n))  # the expiry row is never traded
    if mode == "levered":
        with np.errstate(over="ignore"):  # an overflowed trading fraction is refused below
            traded = _fractions(spec, prices[:-1], times[:-1])
        fractions[:-1] = _representable(traded, "log_price_levered")
    else:
        held = _representable(_unlevered_fractions(spec, prices[:-1], times[:-1], T),
                              "log_price_unlevered")
        # Deep in the cash region f can be subnormal, and so would its shares
        # be; holding none keeps the ledger's fraction, shares and cash agreed.
        fractions[:-1, 0] = np.where(1.0 - held == 1.0, 0.0, held)
    rel = prices[1:] / prices[:-1] - 1.0
    wealth = np.empty(len(times))
    wealth[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite wealth is refused below
        growth = np.exp(spec.rate * np.diff(times)) - 1.0
        risky = np.sum(fractions[:-1] * rel, axis=1)
        bond = (1.0 - np.sum(fractions[:-1], axis=1)) * growth
        wealth[1:] = np.cumprod(1.0 + risky + bond)
    if not np.all(np.isfinite(wealth)):
        raise ValidationError("hedge wealth is not representable in float64")
    with np.errstate(over="ignore"):  # an overflowed share count is refused below
        shares = fractions * wealth[:, None] / prices
    if not np.all(np.isfinite(shares)):
        raise ValidationError("hedge share count is not representable in float64")
    cash = wealth * (1.0 - np.sum(fractions, axis=1))
    shares[-1] = 0.0
    cash[-1] = wealth[-1]
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

    Only S at the warmup t_w and at T enter W_T, and their joint law is
    exactly lognormal, so each path draws two increments, over [0, t_w] and
    [t_w, T].  The run keeps one value per path and no accounts.  Path i
    draws from the stream of path i of ``simulate_paths``, but two normals
    per asset instead of one per grid step, so growth path i is not
    ``simulate_paths`` path i.
    """
    spec = config.spec
    ends = np.array([config.warmup, config.T], dtype=float)
    basket_shares = (1.0 / spec.n) / spec.s0
    kelly, growth_rate = kelly_rule(spec)

    terminal = np.empty(config.n_paths)
    for first, prices in _price_blocks(spec, np.diff(ends, prepend=0.0)[:, None], 2,
                                       config.n_paths, "physical", config.seed):
        slab = prices[:, 1:]
        log_c = _log_levered(spec, slab, ends, config.T)
        terminal[first:first + len(prices)] = ((slab[:, 0] @ basket_shares)
                                               * np.exp(log_c[:, 1] - log_c[:, 0]))
    cagr = np.log(terminal) / config.T
    return SimulationResult(terminal_wealth=terminal, cagr=cagr,
                            kelly_fractions=kelly.b, kelly_growth_rate=growth_rate)


def discrete_backtest(table: PriceTable, b, rebalance_interval: int = 1,
                      rate: float = 0.0) -> BacktestResult:
    """Fixed-fraction rebalancing over ingested prices at a fixed interval.

    Between rebalances (every ``rebalance_interval`` rows) the update is

        V_{k+1} = V_k [1 + sum_i b_i (S_{k+1,i}/S_{k,i} - 1) + (1 - sum b_i) r],

    with ``rate`` the simple rate per rebalance interval.  Levered fractions
    can bankrupt the account on a discrete interval; the series is then
    truncated at the last positive value and flagged as ruined, with a NaN
    CAGR.  Otherwise CAGR is annually compounded over the elapsed calendar span.
    """
    b, rate = _reals(b, "fractions"), _real(rate, "rate")
    rebalance_interval = _integer(rebalance_interval, "rebalance_interval")
    if not np.all(np.isfinite(b)):
        raise ValidationError("fractions must be finite")
    if not math.isfinite(rate):
        raise ValidationError("rate must be finite")
    if rebalance_interval < 1:
        raise ValidationError("rebalance_interval must be >= 1")
    prices = table.prices[::rebalance_interval]
    times = table.times[::rebalance_interval]
    if prices.shape[0] < 2:
        raise ValidationError("need at least two rebalance points")
    if b.shape != (prices.shape[1],):
        raise ValidationError(f"expected {prices.shape[1]} fractions, got {b.shape[0]}")

    with np.errstate(over="ignore", invalid="ignore"):
        rel = prices[1:] / prices[:-1] - 1.0
        growth = 1.0 + rel @ b + (1.0 - float(np.sum(b))) * rate
        wealth = np.concatenate([[1.0], np.cumprod(growth)])
    ruined = bool(np.any(growth <= 0.0))
    ruin_index = int(np.argmax(growth <= 0.0)) + 1 if ruined else None
    wealth = wealth[:ruin_index]
    times = times[:ruin_index]
    if not np.all(np.isfinite(wealth)):
        raise ValidationError("backtest wealth is not representable in float64")
    if ruined:
        cagr = float("nan")
    else:
        years = float(times[-1]) - float(times[0])  # Python floats: inf, no warning
        if not 0 < years < math.inf:
            raise ValidationError("price table must span a positive, finite time")
        with np.errstate(over="ignore"):
            cagr = float(wealth[-1] ** (1.0 / years) - 1.0)
        if not math.isfinite(cagr):
            raise ValidationError("backtest CAGR is not representable in float64")
    return BacktestResult(times=times, wealth=wealth, cagr=cagr,
                          ruined=ruined, ruin_index=ruin_index)


def load_price_table(path: str) -> PriceTable:
    """Read a chronological CSV: header row, then date-or-time plus prices.

    Column 1 is an ISO date or a numeric time in years; columns 2..n+1 are
    prices.  Blank lines are skipped.  Times must be finite and increasing,
    prices finite and positive.  Parse failures report the exact row and
    column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise ValidationError(f"{path}: empty file")
    lines = text.split("\n")
    del text
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2:
        raise ValidationError(f"{path}:1: need a time column and at least one price column")
    parsed = _parse_rows_at_once(lines, len(header))
    if parsed is None:
        parsed = _parse_rows_by_cell(path, lines, len(header))
    times, prices = parsed
    if len(times) < 2:
        raise ValidationError(f"{path}: need at least two data rows")
    with np.errstate(over="ignore"):
        steps = np.diff(times)
        offsets = times - times[0]
    if np.any(steps <= 0):
        bad = _line_of_row(lines, int(np.argmax(steps <= 0)) + 1)
        raise ValidationError(f"{path}:{bad}: rows must be in increasing time order")
    if not np.isfinite(offsets[-1]):  # increasing, so no step can overflow alone
        bad = _line_of_row(lines, int(np.argmax(~np.isfinite(offsets))))
        raise ValidationError(f"{path}:{bad}: column 1: time span overflows float64")
    return PriceTable(times=offsets, prices=prices, columns=tuple(header[1:]))


def _line_of_row(lines: list[str], row: int) -> int:
    """The file line (from 1, the header's) of data row ``row`` (from 0); blank lines hold no row."""
    return next(islice((no for no, line in enumerate(lines[1:], start=2) if line.strip()),
                       row, None))


def _parse_rows_at_once(lines: list[str], n_cols: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Raw times and prices of well-formed data rows, parsed as whole columns.

    Returns None for anything :func:`_parse_rows_by_cell` must look at cell
    by cell: a bad cell, a non-finite or non-positive value, a time column
    mixing dates and numbers, or a spelling that ``float`` accepts but
    numpy's reader does not (``1_000``, non-ASCII digits).  Where both
    succeed they give the same bits: both round with the correctly rounded
    string-to-double conversion.
    """
    body = [line for line in lines[1:] if line.strip()]
    if len(body) < 2 or set(map(str.count, body, repeat(","))) != {n_cols - 1}:
        return None
    try:
        prices = np.loadtxt(body, delimiter=",", usecols=range(1, n_cols),
                            comments=None, ndmin=2)
    except ValueError:
        return None
    stamps = [line.partition(",")[0].strip() for line in body]
    try:
        times = np.array(list(map(float, stamps)))
    except ValueError:
        # An all-digit stamp is a number and a basic ISO date at once; the
        # cell-by-cell parse reads it as a number.
        if any(map(str.isdigit, stamps)):
            return None
        try:
            days = np.fromiter(map(dt.date.toordinal, map(dt.date.fromisoformat, stamps)),
                               dtype=np.int64, count=len(stamps))
        except ValueError:
            return None
        times = (days - days[0]) / 365.25
    if not (np.all(np.isfinite(times)) and np.all((prices > 0) & (prices < math.inf))):
        return None
    return times, prices


def _parse_rows_by_cell(path: str, lines: list[str],
                        n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw times and prices parsed cell by cell; raises at the first bad cell."""
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
        if not math.isfinite(stamp):
            raise ValidationError(
                f"{path}:{row_no}: column 1: times must be finite, got {stamp}")
        prices_row = []
        for col_no, cell in enumerate(cells[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}:{row_no}: column {col_no}: not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise ValidationError(
                    f"{path}:{row_no}: column {col_no}: prices must be finite, got {value}")
            if value <= 0:
                raise ValidationError(
                    f"{path}:{row_no}: column {col_no}: prices must be positive, got {value}")
            prices_row.append(value)
        raw_times.append(stamp)
        rows.append(prices_row)
    return np.asarray(raw_times), np.asarray(rows)

"""Batch command-line front end.

Every subcommand emits machine-parseable JSON records or CSV tables; with
``--out DIR`` the artifacts land in files next to a run manifest that can be
replayed to bit-identical outputs.  Exit codes: 0 ok, 1 verification
mismatch, 2 usage, 3 domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import ValidationError
from .hindsight import intrinsic_value
from .lattice import (
    DemonLedger,
    LatticeSpec,
    LatticeState,
    demon_simulation,
    lattice_payoff,
    lattice_price,
)
from .market import MarketSpec, _seed, load_market_spec, simulate_paths
from .mc import mc_prices
from .pricing import (
    greeks,
    implied_vols,
    price_levered,
    price_unlevered,
    time0_unlevered_excess_growth,
)
from .replication import (
    HedgeLedger,
    SimulationConfig,
    discrete_backtest,
    hedge_path,
    load_price_table,
    run_growth_simulation,
    scenario_spec,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# CSV rows written per piece, which bounds the cell strings alive at once.
_PIECE_ROWS = 1024


def _json(record: dict, indent: int | None = None) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of printing."""
    return json.dumps(record, sort_keys=True, indent=indent, allow_nan=False)


def _cells(column: Sequence) -> Iterator[str]:
    values = np.asarray(column)
    if values.dtype == np.float64:
        return map(repr, values.tolist())  # shortest round-trip, plain-float repr
    return map(str, column)


def _csv_table(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """A header row, then one row per index of the equal-length ``columns``.

    The one writer behind every CSV artifact.  A column of float64 values
    prints ``repr(float(x))`` of each value, the shortest repr that reads back
    to the same float; any other column prints ``str`` of each cell.  Rows are
    formatted a piece at a time, each cell by a builtin mapped over the piece,
    never by a Python function per cell.
    """
    rows = len(columns[0]) if columns else 0
    pieces = [",".join(header), "\n"]
    for first in range(0, rows, _PIECE_ROWS):
        cells = [_cells(column[first:first + _PIECE_ROWS]) for column in columns]
        pieces += ["\n".join(map(",".join, zip(*cells))), "\n"]
    return "".join(pieces)


def _ledger_csv(ledger: HedgeLedger) -> str:
    """A hedge ledger: time, wealth, cash, then fraction_i and shares_i, one row per grid point."""
    n = ledger.fractions.shape[1]
    header = (["time", "wealth", "cash"]
              + [f"fraction_{i + 1}" for i in range(n)]
              + [f"shares_{i + 1}" for i in range(n)])
    return _csv_table(header, [ledger.times, ledger.wealth, ledger.cash,
                               *ledger.fractions.T, *ledger.shares.T])


def _demon_csv(ledger: DemonLedger) -> str:
    """A demon run: step, upticks, stock, wealth."""
    return _csv_table(["step", "upticks", "stock", "wealth"],
                      [ledger.steps, ledger.upticks, ledger.stock, ledger.wealth])


def _add_market_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="market spec file (overridden by flags)")
    parser.add_argument("--sigma", type=float, help="volatility (single asset)")
    parser.add_argument("--r", type=float, help="risk-free rate")
    parser.add_argument("--mu", type=float, help="drift (single asset; defaults to r)")
    parser.add_argument("--s0", type=float, help="initial price (single asset)")


def _build_spec(args) -> MarketSpec:
    if args.config:
        spec = load_market_spec(args.config)
        if any(getattr(args, f, None) is not None for f in ("sigma", "mu", "s0")) and spec.n != 1:
            raise ValidationError("single-asset flags cannot override a multi-asset config")
        if spec.n == 1:
            sigma = args.sigma if args.sigma is not None else float(spec.sigma[0])
            rate = args.r if args.r is not None else spec.rate
            mu = args.mu if args.mu is not None else float(spec.mu[0])
            s0 = args.s0 if args.s0 is not None else float(spec.s0[0])
            spec = MarketSpec.single(mu=mu, sigma=sigma, rate=rate, s0=s0)
        elif args.r is not None:
            spec = MarketSpec(n=spec.n, mu=spec.mu, sigma=spec.sigma,
                              corr=spec.corr, rate=args.r, s0=spec.s0)
        return spec
    if args.sigma is None:
        raise ValidationError("either --config or --sigma is required")
    rate = args.r if args.r is not None else 0.0
    mu = args.mu if args.mu is not None else rate
    s0 = args.s0 if args.s0 is not None else 1.0
    return MarketSpec.single(mu=mu, sigma=args.sigma, rate=rate, s0=s0)


def _floats(text: str) -> list[float]:
    """A comma- or space-separated list of numbers, as --s, --b and --sigmas take it."""
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_prices(text: str, n: int) -> np.ndarray:
    values = _floats(text)
    if len(values) != n:
        raise ValidationError(f"expected {n} prices in --s, got {len(values)}")
    return np.asarray(values)


def _manifest(args, outputs: list[str]) -> str:
    """The run record: every parsed flag but --out, and the argv that replays it."""
    params = {key: value for key, value in vars(args).items()
              if key not in ("command", "handler", "out")}
    argv = [args.command]
    for key, value in sorted(params.items()):
        if value is not None:
            argv.extend(["--" + key.replace("_", "-"), str(value)])
    return _json({"command": args.command, "parameters": params, "seed": params.get("seed"),
                  "outputs": outputs, "version": __version__, "argv": argv},
                 indent=2) + "\n"


def _emit(args, artifacts: dict[str, dict | str | Callable[[], str]]) -> int:
    """Print the first artifact; with --out, also write every artifact and a manifest.

    ``artifacts`` maps a file name to a JSON record (a dict), finished CSV
    text, or, past the first, a zero-argument callable that formats CSV text:
    it is called only under --out, since only a file reads it.  Every record
    is serialised, and under --out every file formatted, before anything is
    printed or written.
    """
    texts = {name: _json(body) + "\n" if isinstance(body, dict) else body
             for name, body in artifacts.items()}
    files = {}
    if args.out:
        files = {name: text() if callable(text) else text for name, text in texts.items()}
        files["manifest.json"] = _manifest(args, sorted(texts))
    sys.stdout.write(next(iter(texts.values())))
    if files:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (out_dir / name).write_text(content, encoding="utf-8")
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_price(args) -> int:
    spec = _build_spec(args)
    s = _parse_prices(args.s, spec.n)
    pricer = price_levered if args.mode == "levered" else price_unlevered
    return _emit(args, {"quote.json": pricer(spec, s, args.t, args.T).as_record()})


def _cmd_greeks(args) -> int:
    spec = _build_spec(args)
    s = _parse_prices(args.s, spec.n)
    return _emit(args, {"greeks.json": greeks(spec, s, args.t, args.T).as_record()})


def _cmd_iv(args) -> int:
    roots = implied_vols(args.price, args.s, args.s0, args.t, args.T, args.r)
    return _emit(args, {"iv.json": {"roots": list(roots.roots), "observed_price": args.price,
                                    "t": args.t, "T": args.T}})


def _cmd_lattice(args) -> int:
    if args.what == "demon":
        return _emit(args, {"demon.csv": _demon_csv(demon_simulation(args.N, args.p, args.seed))})
    spec = LatticeSpec(u=args.u, d=args.d, r_per=args.rper, n_steps=args.N)
    if args.what == "payoff":
        if args.j is None:
            return _usage_error("--j is required for payoff")
        value = lattice_payoff(spec, args.j, args.mode)
        return _emit(args, {"payoff.json": {"payoff": value, "j": args.j, "N": args.N,
                                            "mode": args.mode}})
    if args.k is None or args.n is None:
        return _usage_error("--k and --n are required for price")
    value = lattice_price(spec, LatticeState(args.k, args.n), args.mode)
    return _emit(args, {"price.json": {"price": value, "k": args.k, "n": args.n, "N": args.N,
                                       "mode": args.mode}})


def _cmd_simulate(args) -> int:
    if args.scenario == "custom":
        if not args.config:
            raise ValidationError("custom scenario requires --config")
        spec = load_market_spec(args.config)
    else:
        spec = scenario_spec(args.scenario)
    config = SimulationConfig(spec=spec, T=args.T, warmup=args.warmup,
                              steps_per_year=args.steps_per_year,
                              n_paths=args.paths, seed=args.seed)
    result = run_growth_simulation(config)
    paths = functools.partial(_csv_table, ["path", "terminal_wealth", "cagr"],
                              [range(config.n_paths), result.terminal_wealth, result.cagr])
    summary = {
        "scenario": args.scenario,
        "mean_cagr": result.mean_cagr,
        "kelly_growth_rate": result.kelly_growth_rate,
        "kelly_fractions": [float(b) for b in result.kelly_fractions],
        "paths": config.n_paths,
        "T": config.T,
        "warmup": config.warmup,
    }
    return _emit(args, {"summary.json": summary, "paths.csv": paths})


def _cmd_hedge(args) -> int:
    spec = _build_spec(args)
    path = simulate_paths(spec, args.T, args.steps, 1, measure=args.measure,
                          seed=args.seed)[0]
    ledger = hedge_path(spec, path, args.t0, args.T, mode=args.mode)
    summary = {
        "terminal_wealth": float(ledger.wealth[-1]),
        "mode": args.mode,
        "t0": args.t0,
        "T": args.T,
        "steps": args.steps,
        "intrinsic_at_expiry": intrinsic_value(spec, path.prices[-1], args.T,
                                               args.mode),
    }
    return _emit(args, {"summary.json": summary,
                        "ledger.csv": functools.partial(_ledger_csv, ledger)})


def _cmd_backtest(args) -> int:
    table = load_price_table(args.prices)
    result = discrete_backtest(table, _floats(args.b), rebalance_interval=args.interval,
                               rate=args.rate)
    # A ruined account has no growth rate: the library's NaN is written as null.
    summary = {"cagr": None if result.ruined else result.cagr, "ruined": result.ruined,
               "ruin_index": result.ruin_index,
               "terminal_wealth": float(result.wealth[-1]),
               "periods": len(result.wealth) - 1}
    wealth = functools.partial(_csv_table, ["time", "wealth"], [result.times, result.wealth])
    return _emit(args, {"summary.json": summary, "wealth.csv": wealth})


def _random_correlation(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n + 2))
    cov = a @ a.T
    d = 1.0 / np.sqrt(np.diag(cov))
    return d[:, None] * cov * d[None, :]


def _cmd_verify(args) -> int:
    seed = _seed(args.seed)
    if args.states < 1:
        raise ValidationError("--states must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0FFEE)))
    rows = []
    all_ok = True
    for state_idx in range(args.states):
        n = args.n
        sigma = rng.uniform(0.15, 0.8, size=n)
        corr = _random_correlation(rng, n) if n > 1 else np.eye(1)
        rate = rng.uniform(0.0, 0.05)
        horizon = rng.uniform(1.0, 4.0)
        t = rng.uniform(0.1, 0.9) * horizon
        spec = MarketSpec(n=n, mu=np.full(n, rate), sigma=sigma, corr=corr,
                          rate=rate, s0=np.ones(n))
        shock = rng.standard_normal(n) @ np.linalg.cholesky(corr).T
        s = np.exp((rate - 0.5 * sigma**2) * t + sigma * np.sqrt(t) * shock)
        modes = ("levered",) if n > 1 else ("levered", "unlevered")
        closed_forms = [(price_levered if mode == "levered" else price_unlevered)(
            spec, s, t, horizon).price for mode in modes]
        estimates = mc_prices(spec, s, t, horizon, modes, n_paths=args.paths,
                              seed=seed + 101 * state_idx)
        for mode, closed, est in zip(modes, closed_forms, estimates):
            gap = abs(closed - est.mean)
            ok = gap < 4.0 * est.std_error
            all_ok &= ok
            # At SE = 0 the gap has no size in standard errors: inf unless it is 0 too.
            gap_in_se = (gap / est.std_error if est.std_error
                         else float("inf") if gap else float("nan"))
            rows.append([mode, n, float(t), float(horizon), closed, est.mean,
                         est.std_error, gap_in_se,
                         "ok" if ok else "FAIL", est.estimator, est.max_share])
    table = _csv_table(["mode", "n", "t", "T", "closed", "mc_mean", "mc_std_error",
                        "gap_in_std_errors", "status", "estimator", "max_share"],
                       list(zip(*rows)))
    emitted = _emit(args, {"verify.csv": table})
    return emitted if all_ok else EXIT_CHECK_FAILED


def _cmd_curve(args) -> int:
    if not (math.isfinite(args.lo) and math.isfinite(args.hi)):
        raise ValidationError("--lo and --hi must be finite")
    sigmas = _floats(args.sigmas)
    grid = np.linspace(args.lo, args.hi, args.count)
    if args.what == "payoff":
        specs = [MarketSpec.single(mu=args.r, sigma=sig, rate=args.r, s0=args.s0)
                 for sig in sigmas]
        rows = [[float(s_val)] + [intrinsic_value(spec, s_val, args.t, args.mode)
                                  for spec in specs] for s_val in grid]
        name, axis = "payoff_curve.csv", "s"
    else:
        rows = [[float(horizon)] + [time0_unlevered_excess_growth(sig, horizon)
                                    for sig in sigmas] for horizon in grid]
        name, axis = "regret_curve.csv", "T"
    header = [axis] + [f"sigma_{s:g}" for s in sigmas]
    return _emit(args, {name: _csv_table(header, list(zip(*rows)))})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hindsight-options",
        description="Price, hedge, and simulate the hindsight allocation option.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seeded: bool = False) -> None:
        p.add_argument("--out", help="directory for artifacts plus a run manifest")
        if seeded:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("price", help="closed-form quote")
    _add_market_args(p)
    p.add_argument("--mode", choices=["levered", "unlevered"], default="levered")
    p.add_argument("--s", required=True, help="current price(s), comma-separated")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    common(p)
    p.set_defaults(handler=_cmd_price)

    p = sub.add_parser("greeks", help="levered sensitivities (one asset)")
    _add_market_args(p)
    p.add_argument("--s", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    common(p)
    p.set_defaults(handler=_cmd_greeks)

    p = sub.add_parser("iv", help="implied volatilities from an observed price")
    p.add_argument("--price", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--r", type=float, default=0.0)
    common(p)
    p.set_defaults(handler=_cmd_iv)

    p = sub.add_parser("lattice", help="binomial-lattice price/payoff/demon run")
    p.add_argument("--what", choices=["price", "payoff", "demon"], default="price")
    p.add_argument("--u", type=float, default=2.0)
    p.add_argument("--d", type=float, default=0.5)
    p.add_argument("--rper", type=float, default=0.0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", choices=["levered", "unlevered"], default="levered")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--p", type=float, default=0.5, help="coin bias for demon runs")
    common(p, seeded=True)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("simulate", help="long-horizon growth experiment")
    p.add_argument("--scenario", choices=["sim1", "sim2", "sim3", "custom"],
                   required=True)
    p.add_argument("--config", help="market spec for custom scenarios")
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--warmup", type=float, default=5.0)
    p.add_argument("--steps-per-year", type=int, default=12,
                   help="no effect: the run builds no grid (kept, still >= 1, so argvs run)")
    p.add_argument("--paths", type=int, default=100)
    common(p, seeded=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("hedge", help="replicate along one simulated path")
    _add_market_args(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--mode", choices=["levered", "unlevered"], default="levered")
    p.add_argument("--measure", choices=["physical", "risk_neutral"],
                   default="physical")
    common(p, seeded=True)
    p.set_defaults(handler=_cmd_hedge)

    p = sub.add_parser("backtest", help="fixed-fraction rebalancing on CSV prices")
    p.add_argument("--prices", required=True, help="CSV: date-or-time, prices...")
    p.add_argument("--b", required=True, help="fractions, comma-separated")
    p.add_argument("--interval", type=int, default=1)
    p.add_argument("--rate", type=float, default=0.0,
                   help="simple rate per rebalance interval")
    common(p)
    p.set_defaults(handler=_cmd_backtest)

    p = sub.add_parser("verify", help="closed forms vs. the Monte Carlo oracle")
    p.add_argument("--n", type=int, choices=[1, 2, 3], default=1)
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--paths", type=int, default=200_000)
    common(p, seeded=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("curve", help="plot-ready payoff / regret tables")
    p.add_argument("--what", choices=["payoff", "regret"], required=True)
    p.add_argument("--sigmas", default="0.3", help="volatilities, comma-separated")
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--s0", type=float, default=100.0)
    p.add_argument("--t", type=float, default=5.0)
    p.add_argument("--mode", choices=["levered", "unlevered"], default="levered")
    p.add_argument("--lo", type=float, default=50.0)
    p.add_argument("--hi", type=float, default=200.0)
    p.add_argument("--count", type=int, default=151)
    common(p)
    p.set_defaults(handler=_cmd_curve)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing reads it and never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

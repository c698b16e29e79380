"""The benchmark's four workloads: inputs from a seed, jobs, and output checks.

A workload is a fixed batch of jobs, run in order as a closed loop by one
client: each job is one library call sequence or one in-process ``cli.main``
call, and starts only after the previous one ended.  Every job has a check
that compares its output with an identity from the paper (see ``oracles``).

Jobs look up the package's functions through its namespaces at call time, so
the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import hindsight_options as ho
import hindsight_options.cli  # noqa: F401  (binds ho.cli)

import oracles

NAMES = ("quote_book", "mc_oracle", "path_replication", "lattice_demon")


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    out_dir: Path | None = None


@dataclass
class Job:
    """One unit of the closed loop; ``work`` counts the units of its kind's rate."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    work: float = 1.0


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    work_dir: Path
    rates: dict[str, tuple[str, str]] = field(default_factory=dict)
    latencies: dict[str, tuple[str, str]] = field(default_factory=dict)


def workload_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, NAMES.index(name)]))


def _f(x: float) -> str:
    return repr(float(x))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def call_cli(argv: list[str], out_dir: Path | None = None) -> CliResult:
    """Run ``cli.main`` in-process with stdout and stderr captured."""
    if out_dir is not None:
        argv = [*argv, "--out", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ho.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue(), out_dir)


def bytes_out(result: object) -> int:
    """Bytes a CLI job wrote: stdout plus every artifact in its --out directory."""
    if not isinstance(result, CliResult):
        return 0
    total = len(result.stdout.encode())
    if result.out_dir is not None:
        total += sum(p.stat().st_size for p in result.out_dir.iterdir())
    return total


def _ok_cli(result: CliResult) -> CliResult:
    _expect(result.code == 0, f"exit code {result.code}: {result.stderr.strip()[-300:]}")
    return result


# First round's artifacts of each --out directory, once its replay passed.
_REPLAYED: dict[Path, tuple[list[str], dict[str, bytes]]] = {}


def _artifacts(out_dir: Path) -> dict[str, bytes]:
    """Every file of an --out directory but the manifest, which may hold timings."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


def _replay(result: CliResult) -> None:
    """Re-run the manifest's argv; every artifact but the manifest must match bytewise.

    A job runs the same argv every round.  So the replay is made once per
    job, and later rounds compare their manifest argv and artifacts with the
    replayed first round's, which keeps the checks from doubling a round.
    """
    first = result.out_dir
    manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    argv, files = list(manifest["argv"]), _artifacts(first)
    if first in _REPLAYED:
        want_argv, want = _REPLAYED[first]
        _expect(argv == want_argv, f"manifest argv {argv} != first round's {want_argv}")
        _expect(sorted(files) == sorted(want), f"wrote {sorted(files)}, first round {sorted(want)}")
        for name in files:
            _expect(files[name] == want[name], f"{name} differs from the replayed first round")
        return
    second = first.with_name(first.name + "-replay")
    shutil.rmtree(second, ignore_errors=True)
    replay = call_cli(argv, second)
    _expect(replay.code == 0, f"replay exit code {replay.code}")
    again = _artifacts(second)
    _expect(sorted(files) == sorted(again), f"replay wrote {sorted(again)}, first run {sorted(files)}")
    for name in files:
        _expect(files[name] == again[name], f"replay of {name} differs")
    _REPLAYED[first] = (argv, files)


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


# --------------------------------------------------------------------------
# quote_book: closed-form quoting over shared specs, plus one-shot CLI quotes

QUOTE_STATES = 240
CLI_EVERY = 20


def random_corr(rng: np.random.Generator, n: int) -> np.ndarray:
    """A symmetric unit-diagonal correlation matrix from a random Gram matrix."""
    a = rng.standard_normal((n, n + 2))
    cov = a @ a.T
    d = 1.0 / np.sqrt(np.diag(cov))
    corr = d[:, None] * cov * d[None, :]
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def random_spec(rng: np.random.Generator, n: int):
    mu = rng.uniform(0.0, 0.12, n)
    sigma = rng.uniform(0.15, 0.6, n)
    rate = float(rng.uniform(0.0, 0.05))
    s0 = rng.uniform(20.0, 200.0, n)
    if n == 1:
        spec = ho.MarketSpec.single(mu=mu[0], sigma=sigma[0], rate=rate, s0=s0[0])
    elif n == 2:
        spec = ho.MarketSpec.pair(mu=mu, sigma=sigma, rho=float(rng.uniform(-0.6, 0.6)),
                                  rate=rate, s0=s0)
    else:
        spec = ho.MarketSpec(n=n, mu=mu, sigma=sigma, corr=random_corr(rng, n),
                             rate=rate, s0=s0)
    return ho.validate_market(spec)


def random_state(rng: np.random.Generator, spec):
    horizon = float(rng.uniform(0.5, 5.0))
    t = horizon * float(rng.uniform(0.05, 0.95))
    shock = np.linalg.cholesky(spec.corr) @ rng.standard_normal(spec.n)
    s = spec.s0 * np.exp((spec.rate - 0.5 * spec.sigma**2) * t
                         + spec.sigma * math.sqrt(t) * shock)
    return s, t, horizon


def _quote_state(spec, s, t, T) -> dict:
    out = {"levered": ho.price_levered(spec, s, t, T),
           "holdings": ho.multi_delta(spec, s, t, T)}
    if spec.n == 1:
        out["unlevered"] = ho.price_unlevered(spec, s, t, T)
        out["greeks"] = ho.greeks(spec, s, t, T)
        out["iv"] = ho.implied_vols(out["levered"].price, float(s[0]), float(spec.s0[0]),
                                    t, T, spec.rate)
    return out


def _check_greeks(g: dict, sigma, rate, s0, s, t, T, c) -> None:
    _expect(oracles.black_scholes_residual(g, sigma, rate, s, c) < 1e-8,
            f"greeks break the Black-Scholes identity: {g}")
    delta = float(oracles.levered_holdings([sigma], [[1.0]], rate, [s0], [s], t, T)[0])
    _expect(oracles.close(g["delta"], delta, 1e-9), f"delta {g['delta']} != {delta}")


def _check_roots(roots, sigma: float) -> None:
    _expect(any(abs(r - sigma) <= 1e-6 * sigma for r in roots),
            f"implied vols {roots} miss the generating sigma {sigma}")


def _check_state(spec, s, t, T, out: dict) -> None:
    log_c = oracles.log_levered_price(spec.sigma, spec.corr, spec.rate, spec.s0, s, t, T)
    c = math.exp(log_c)
    _expect(oracles.close(out["levered"].price, c, 1e-9),
            f"levered price {out['levered'].price} != {c}")
    want = oracles.levered_holdings(spec.sigma, spec.corr, spec.rate, spec.s0, s, t, T)
    got = np.asarray(out["holdings"], dtype=float)
    _expect(got.shape == want.shape
            and np.all(np.abs(got - want) <= 1e-9 * np.max(np.abs(want))),
            f"holdings {got} != {want}")
    if spec.n == 1:
        sigma, s0, s1 = float(spec.sigma[0]), float(spec.s0[0]), float(s[0])
        unlev = oracles.unlevered_price(sigma, spec.rate, s0, s1, t, T)
        _expect(oracles.close(out["unlevered"].price, unlev, 1e-9),
                f"unlevered price {out['unlevered'].price} != {unlev}")
        _check_greeks(out["greeks"].as_record(), sigma, spec.rate, s0, s1, t, T, c)
        _check_roots(out["iv"].roots, sigma)


def _cli_quote(rng: np.random.Generator, i: int) -> Job:
    spec = random_spec(rng, 1)
    s, t, T = random_state(rng, spec)
    sigma, r, mu, s0, s1 = (float(spec.sigma[0]), spec.rate, float(spec.mu[0]),
                            float(spec.s0[0]), float(s[0]))
    market = ["--sigma", _f(sigma), "--r", _f(r), "--mu", _f(mu), "--s0", _f(s0),
              "--s", _f(s1), "--t", _f(t), "--T", _f(T)]
    c = math.exp(oracles.log_levered_price([sigma], [[1.0]], r, [s0], [s1], t, T))
    which = ("levered", "unlevered", "greeks", "iv")[i % 4]
    if which == "levered" or which == "unlevered":
        argv = ["price", "--mode", which, *market]
        want = c if which == "levered" else oracles.unlevered_price(sigma, r, s0, s1, t, T)

        def check(res):
            got = json.loads(_ok_cli(res).stdout)["price"]
            _expect(oracles.close(got, want, 1e-9), f"CLI {which} price {got} != {want}")
    elif which == "greeks":
        argv = ["greeks", *market]

        def check(res):
            _check_greeks(json.loads(_ok_cli(res).stdout), sigma, r, s0, s1, t, T, c)
    else:
        argv = ["iv", "--price", _f(c), "--s", _f(s1), "--s0", _f(s0), "--t", _f(t),
                "--T", _f(T), "--r", _f(r)]

        def check(res):
            _check_roots(json.loads(_ok_cli(res).stdout)["roots"], sigma)
    return Job("cli_quote", partial(call_cli, argv), check)


def build_quote_book(seed: int, work_dir: Path) -> Workload:
    rng = workload_rng(seed, "quote_book")
    specs = [random_spec(rng, n) for n in (1, 2, 3) for _ in range(2)]
    jobs = []
    for i in range(QUOTE_STATES):
        spec = specs[i % len(specs)]
        s, t, T = random_state(rng, spec)
        jobs.append(Job("state", partial(_quote_state, spec, s, t, T),
                        partial(_check_state, spec, s, t, T)))
        if i % CLI_EVERY == CLI_EVERY - 1:
            jobs.append(_cli_quote(rng, i // CLI_EVERY))
    return Workload("quote_book", jobs, work_dir,
                    latencies={"quote": ("state", "us"), "cli_quote": ("cli_quote", "ms")})


# --------------------------------------------------------------------------
# mc_oracle: the verify command, closed forms against the Monte Carlo pricer

MC_CALLS = 3  # per asset count, one state each, so every job stays short
MC_STATES = 1
MC_PATHS = 2_000_000


def _check_verify(n: int, res: CliResult) -> None:
    rows = _csv_rows(res.stdout)
    rejected = [row for row in rows if row["status"] != "ok"]
    _expect(res.code == 0 and not rejected,
            f"verify exit code {res.code}, rows beyond 4 standard errors: {rejected}")
    modes = 2 if n == 1 else 1
    _expect(len(rows) == MC_STATES * modes, f"verify printed {len(rows)} rows")


def build_mc_oracle(seed: int, work_dir: Path) -> Workload:
    rng = workload_rng(seed, "mc_oracle")
    jobs = []
    for n in (1, 2, 3):
        for _ in range(MC_CALLS):
            argv = ["verify", "--n", str(n), "--states", str(MC_STATES), "--paths",
                    str(MC_PATHS), "--seed", str(int(rng.integers(0, 2**31)))]
            modes = 2 if n == 1 else 1
            jobs.append(Job("verify", partial(call_cli, argv), partial(_check_verify, n),
                            work=MC_STATES * modes * (MC_PATHS // 2)))
    return Workload("mc_oracle", jobs, work_dir,
                    rates={"mc_obs_per_s": ("verify", "1/s")})


def verify_counts(result: object) -> dict[str, int]:
    """Rows and passed rows of a verify table, and levered rows by estimator.

    The levered pricer takes the plain estimator when t > T/2 and the
    partially exact one otherwise.
    """
    if not isinstance(result, CliResult) or not result.stdout.startswith("mode,"):
        return {}
    rows = _csv_rows(result.stdout)
    levered = [row for row in rows if row["mode"] == "levered"]
    plain = sum(1 for row in levered if float(row["t"]) > 0.5 * float(row["T"]))
    return {"rows": len(rows), "ok": sum(1 for row in rows if row["status"] == "ok"),
            "plain": plain, "partial": len(levered) - plain}


# --------------------------------------------------------------------------
# path_replication: growth simulations, hedges with --out, and backtests

# The wide grid: 5000 paths x 20 yearly steps per round, split into short jobs
# so that a run holds enough rounds for each job's fastest time to be steady.
WIDE = dict(scenario="sim3", T=20, warmup=1, steps_per_year=1, paths=1_000)
WIDE_JOBS = 5
DEEP = dict(T=200, warmup=5, steps_per_year=12, paths=100)
HEDGE_STEPS = 10_000
HEDGE_T0, HEDGE_T = 1.0, 2.0
BACKTEST_ROWS = 20_000
BACKTEST_ASSETS = 3
HEDGE_CAPTURE_SIGMAS = 6.0


def _simulate_argv(scenario: str, T, warmup, steps_per_year, paths, seed: int) -> list[str]:
    return ["simulate", "--scenario", scenario, "--T", str(T), "--warmup", str(warmup),
            "--steps-per-year", str(steps_per_year), "--paths", str(paths),
            "--seed", str(seed)]


# Beyond this many standard errors a statistic of simulated output is wrong.
SIM_SCORE_LIMIT = 5.0


@functools.lru_cache(maxsize=None)
def _growth_law(scenario: str, T: float, warmup: float) -> tuple[float, float, float]:
    spec = ho.scenario_spec(scenario)
    return oracles.growth_cagr_moments(spec.mu, spec.sigma, spec.corr, spec.rate, T, warmup)


def _check_simulate(scenario: str, T: float, warmup: float, paths: int,
                    res: CliResult) -> None:
    summary = json.loads(_ok_cli(res).stdout)
    spec = ho.scenario_spec(scenario)
    b, growth = oracles.kelly(spec.mu, spec.sigma, spec.corr, spec.rate)
    _expect(summary["paths"] == paths, f"simulate reported {summary['paths']} paths")
    _expect(oracles.close(summary["kelly_growth_rate"], growth, 1e-9),
            f"Kelly growth {summary['kelly_growth_rate']} != {growth}")
    _expect(np.allclose(summary["kelly_fractions"], b, rtol=1e-9, atol=0.0),
            f"Kelly fractions {summary['kelly_fractions']} != {b}")
    rows = _csv_rows((res.out_dir / "paths.csv").read_text(encoding="utf-8"))
    _expect([int(row["path"]) for row in rows] == list(range(paths)),
            f"paths.csv does not list paths 0..{paths - 1} once each")
    wealth = np.array([float(row["terminal_wealth"]) for row in rows])
    cagr = np.array([float(row["cagr"]) for row in rows])
    _expect(np.allclose(cagr, np.log(wealth) / T, rtol=1e-12, atol=1e-15),
            "cagr is not log(terminal wealth) / T")
    _expect(oracles.close(summary["mean_cagr"], float(cagr.mean()), 1e-12),
            f"mean CAGR {summary['mean_cagr']} != mean of paths.csv {cagr.mean()}")
    # Independent paths give the law's mean and variance within a few
    # standard errors; a wrong drift or volatility moves the mean, and shocks
    # shared between paths collapse the variance.
    mean, var, m4 = _growth_law(scenario, float(T), float(warmup))
    mean_score = (cagr.mean() - mean) / math.sqrt(var / paths)
    var_score = (np.mean((cagr - mean) ** 2) - var) / math.sqrt((m4 - var * var) / paths)
    _expect(abs(mean_score) < SIM_SCORE_LIMIT and abs(var_score) < SIM_SCORE_LIMIT,
            f"{scenario} CAGR mean {cagr.mean():.6g} and variance {cagr.var():.6g} are "
            f"{mean_score:+.2f} and {var_score:+.2f} standard errors from the law's "
            f"{mean:.6g} and {var:.6g}")
    _replay(res)


def _check_hedge(mode: str, market: dict, seed: int, res: CliResult) -> None:
    summary = json.loads(_ok_cli(res).stdout)
    ledger = _csv_rows((res.out_dir / "ledger.csv").read_text(encoding="utf-8"))
    _expect(len(ledger) == round(HEDGE_STEPS * (HEDGE_T - HEDGE_T0) / HEDGE_T) + 1,
            f"ledger has {len(ledger)} rows")
    _expect(float(ledger[-1]["wealth"]) == summary["terminal_wealth"],
            "summary terminal wealth differs from the ledger")
    # The path is an input, drawn through the same public call the CLI makes;
    # its log increments are checked against the GBM law of the market.
    spec = ho.MarketSpec.single(**market)
    path = ho.simulate_paths(spec, HEDGE_T, HEDGE_STEPS, 1, seed=seed)[0]
    scores = oracles.log_increment_scores(path.prices[:, 0], market["mu"], market["sigma"],
                                          HEDGE_T / HEDGE_STEPS)
    _expect(all(abs(v) < SIM_SCORE_LIMIT for v in scores.values()),
            f"hedge path log increments stray from the GBM law: {scores}")
    i0 = round(HEDGE_STEPS * HEDGE_T0 / HEDGE_T)
    # The ledger traded on that path: price = wealth * fraction / shares.
    times, wealth, fraction, shares = (np.array([float(row[key]) for row in ledger])
                                       for key in ("time", "wealth", "fraction_1", "shares_1"))
    _expect(np.allclose(times, path.times[i0:], rtol=1e-12, atol=0.0),
            "ledger times are not the path's grid over [t0, T]")
    held = np.flatnonzero(shares[:-1])  # the last row is liquidated
    _expect(held.size > 0 and np.allclose(wealth[held] * fraction[held] / shares[held],
                                          path.prices[i0 + held, 0], rtol=1e-9, atol=0.0),
            "ledger prices differ from the simulated path")
    s_t0, s_T = float(path.prices[i0, 0]), float(path.prices[-1, 0])
    sigma, r, s0 = market["sigma"], market["rate"], market["s0"]
    log_v = oracles.log_intrinsic(sigma, r, s0, s_T, HEDGE_T, mode)
    _expect(oracles.close(summary["intrinsic_at_expiry"], math.exp(log_v), 1e-9),
            f"V_T* {summary['intrinsic_at_expiry']} != {math.exp(log_v)}")
    if mode == "levered":
        c = math.exp(oracles.log_levered_price([sigma], [[1.0]], r, [s0], [s_t0],
                                               HEDGE_T0, HEDGE_T))
    else:
        c = oracles.unlevered_price(sigma, r, s0, s_t0, HEDGE_T0, HEDGE_T)
    capture = summary["terminal_wealth"] / (math.exp(log_v) / c) - 1.0
    spread = oracles.hedge_error_std(sigma, r, s0, path.times[i0:], path.prices[i0:, 0])
    _expect(abs(capture) < HEDGE_CAPTURE_SIGMAS * spread,
            f"{mode} hedge missed V_T*/C by {capture:+.4f}, predicted spread {spread:.4f}")
    _replay(res)


def _write_prices(rng: np.random.Generator, path: Path) -> np.ndarray:
    """Write daily ISO-dated prices of independent lognormal assets; return them."""
    shocks = rng.standard_normal((BACKTEST_ROWS - 1, BACKTEST_ASSETS))
    log_steps = 0.0003 + 0.012 * shocks
    prices = 100.0 * np.exp(np.vstack([np.zeros(BACKTEST_ASSETS),
                                       np.cumsum(log_steps, axis=0)]))
    start = dt.date(1990, 1, 1)
    lines = ["date," + ",".join(f"asset_{i + 1}" for i in range(BACKTEST_ASSETS))]
    for k, row in enumerate(prices):
        day = (start + dt.timedelta(days=k)).isoformat()
        lines.append(day + "," + ",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return prices  # repr() round-trips, so the file holds exactly these values


def _check_backtest(prices: np.ndarray, b: np.ndarray, interval: int, rate: float,
                    res: CliResult) -> None:
    _ok_cli(res)
    rows = _csv_rows((res.out_dir / "wealth.csv").read_text(encoding="utf-8"))
    got = np.array([float(row["wealth"]) for row in rows])
    sub = prices[::interval]
    growth = 1.0 + (sub[1:] / sub[:-1] - 1.0) @ b + (1.0 - b.sum()) * rate
    want = np.concatenate([[1.0], np.cumprod(growth)])
    _expect(got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=0.0),
            "backtest wealth differs from the numpy cumprod")
    _replay(res)


def build_path_replication(seed: int, work_dir: Path) -> Workload:
    rng = workload_rng(seed, "path_replication")

    def seed_() -> int:
        return int(rng.integers(0, 2**31))

    jobs = []
    for k in range(WIDE_JOBS):
        wide = dict(WIDE, seed=seed_())
        jobs.append(Job("wide", partial(call_cli, _simulate_argv(**wide), work_dir / f"wide-{k}"),
                        partial(_check_simulate, wide["scenario"], wide["T"], wide["warmup"],
                                wide["paths"]),
                        work=wide["paths"] * wide["T"] * wide["steps_per_year"]))
    for scenario in ("sim1", "sim2", "sim3"):
        deep = dict(DEEP, scenario=scenario, seed=seed_())
        jobs.append(Job("deep", partial(call_cli, _simulate_argv(**deep),
                                        work_dir / f"deep-{scenario}"),
                        partial(_check_simulate, scenario, deep["T"], deep["warmup"],
                                deep["paths"]),
                        work=deep["paths"] * deep["T"] * deep["steps_per_year"]))
    for mode in ("levered", "unlevered"):
        market = dict(mu=float(rng.uniform(0.0, 0.12)), sigma=float(rng.uniform(0.15, 0.45)),
                      rate=float(rng.uniform(0.0, 0.05)), s0=float(rng.uniform(20.0, 200.0)))
        hedge_seed = seed_()
        argv = ["hedge", "--sigma", _f(market["sigma"]), "--r", _f(market["rate"]),
                "--mu", _f(market["mu"]), "--s0", _f(market["s0"]), "--t0", _f(HEDGE_T0),
                "--T", _f(HEDGE_T), "--steps", str(HEDGE_STEPS), "--mode", mode,
                "--seed", str(hedge_seed)]
        jobs.append(Job("hedge", partial(call_cli, argv, work_dir / f"hedge-{mode}"),
                        partial(_check_hedge, mode, market, hedge_seed),
                        work=round(HEDGE_STEPS * (HEDGE_T - HEDGE_T0) / HEDGE_T)))
    prices_csv = work_dir / "prices.csv"
    prices = _write_prices(rng, prices_csv)
    for k, interval in enumerate((1, 5)):
        b = rng.dirichlet(np.ones(BACKTEST_ASSETS + 1))[:BACKTEST_ASSETS]
        rate = float(rng.uniform(0.0, 1e-4)) * interval
        argv = ["backtest", "--prices", str(prices_csv),
                "--b", ",".join(_f(x) for x in b), "--interval", str(interval),
                "--rate", _f(rate)]
        jobs.append(Job("backtest", partial(call_cli, argv, work_dir / f"backtest-{k}"),
                        partial(_check_backtest, prices, b, interval, rate),
                        work=BACKTEST_ROWS))
    return Workload("path_replication", jobs, work_dir, rates={
        "growth_wide_steps_per_s": ("wide", "1/s"),
        "growth_deep_steps_per_s": ("deep", "1/s"),
        "hedge_steps_per_s": ("hedge", "1/s"),
        "backtest_rows_per_s": ("backtest", "1/s"),
    })


# --------------------------------------------------------------------------
# lattice_demon: double-or-half demon runs and deep closed-sum prices

DEMON_SIZES = (300, 300, 300, 300, 1000)
PRICE_N = 2000
PRICE_JOBS = 6
SHANNON = dict(u=2.0, d=0.5, r_per=0.0)


def _check_demon(n_steps: int, res: CliResult) -> None:
    rows = _csv_rows(_ok_cli(res).stdout)
    _expect(len(rows) == n_steps + 1, f"demon printed {len(rows)} rows")
    k = int(rows[-1]["upticks"])
    want = (oracles.lattice_log_payoff(np.array([k]), n_steps, mode="levered", **SHANNON)[0]
            - oracles.lattice_log_price(0, 0, n_steps, mode="levered", **SHANNON))
    got = math.log(float(rows[-1]["wealth"]))
    _expect(abs(got - want) <= 1e-9 * max(1.0, abs(want)),
            f"final demon log wealth {got} != payoff / C(0,0) = {want}")


def _check_lattice_price(k, n, lattice: dict, mode: str, res: CliResult) -> None:
    got = json.loads(_ok_cli(res).stdout)["price"]
    want = oracles.lattice_log_price(k, n, PRICE_N, mode=mode, **lattice)
    _expect(abs(math.log(got) - want) <= 1e-9 * max(1.0, abs(want)),
            f"lattice {mode} price {got} != exp({want})")


def build_lattice_demon(seed: int, work_dir: Path) -> Workload:
    rng = workload_rng(seed, "lattice_demon")
    jobs = []
    for n_steps in DEMON_SIZES:
        argv = ["lattice", "--what", "demon", "--N", str(n_steps),
                "--p", _f(rng.uniform(0.25, 0.75)), "--seed", str(int(rng.integers(0, 2**31)))]
        jobs.append(Job("demon", partial(call_cli, argv), partial(_check_demon, n_steps),
                        work=n_steps))
    for i in range(PRICE_JOBS):
        sigma, rate = rng.uniform(0.15, 0.5), rng.uniform(0.0, 0.05)
        h = rng.uniform(1.0, 5.0) / PRICE_N
        u = math.exp(sigma * math.sqrt(h))
        lattice = dict(u=u, d=1.0 / u, r_per=math.expm1(rate * h))
        n = PRICE_N - int(rng.integers(10, 300))
        k = int(rng.binomial(n, rng.uniform(0.35, 0.65)))
        mode = ("levered", "unlevered")[i % 2]
        argv = ["lattice", "--what", "price", "--N", str(PRICE_N), "--u", _f(lattice["u"]),
                "--d", _f(lattice["d"]), "--rper", _f(lattice["r_per"]), "--k", str(k),
                "--n", str(n), "--mode", mode]
        jobs.append(Job("lattice_price", partial(call_cli, argv),
                        partial(_check_lattice_price, k, n, lattice, mode)))
    return Workload("lattice_demon", jobs, work_dir,
                    rates={"demon_steps_per_s": ("demon", "1/s")},
                    latencies={"lattice_price": ("lattice_price", "ms")})


WORKLOAD_FUNCS = {
    "quote_book": build_quote_book,
    "mc_oracle": build_mc_oracle,
    "path_replication": build_path_replication,
    "lattice_demon": build_lattice_demon,
}


def build(name: str, seed: int, work_dir: Path) -> Workload:
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    return WORKLOAD_FUNCS[name](seed, work_dir)

"""Command-line front end: records, artifacts, manifests, exit codes."""

import argparse
import hashlib
import json
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from hindsight_options import (
    MarketSpec,
    demon_simulation,
    hedge_path,
    price_levered,
    save_market_spec,
    simulate_paths,
)
from hindsight_options import __version__, cli
from hindsight_options.cli import _csv_table, _demon_csv, _ledger_csv, build_parser, main
from hindsight_options.mc import McEstimate
from hindsight_options.replication import HedgeLedger


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_price_subcommand_matches_the_library(capsys):
    code, out, _ = run_cli(capsys, "price", "--mode", "levered", "--sigma", "0.2",
                           "--r", "0.03", "--s0", "100", "--s", "105",
                           "--t", "0.5", "--T", "1")
    assert code == 0
    record = json.loads(out)
    spec = MarketSpec.single(mu=0.03, sigma=0.2, rate=0.03, s0=100.0)
    quote = price_levered(spec, 105.0, 0.5, 1.0)
    assert record["price"] == quote.price
    assert record["intrinsic"] == quote.intrinsic
    assert record["factor"] == quote.universality_factor
    assert record["mode"] == "levered"


def test_unlevered_price_and_greeks(capsys):
    code, out, _ = run_cli(capsys, "price", "--mode", "unlevered", "--sigma", "0.3",
                           "--r", "0.0", "--s0", "1", "--s", "1.2",
                           "--t", "1", "--T", "2")
    assert code == 0
    assert json.loads(out)["price"] == pytest.approx(1.25604703, rel=1e-7)

    # the levered factor of the interior term overflows; the quote is about S/S0
    code, out, _ = run_cli(capsys, "price", "--mode", "unlevered", "--sigma", "0.1",
                           "--s", "1e30", "--t", "0.01", "--T", "2")
    assert code == 0
    assert json.loads(out)["price"] == pytest.approx(1e30, rel=1e-12)

    # z ~ 7e299 overflows z' R^{-1} z, but the interior term is 0 and the quote is S/S0
    code, out, err = run_cli(capsys, "price", "--mode", "unlevered", "--sigma", "1e-300",
                             "--s", "2", "--s0", "1", "--t", "1", "--T", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["price"] == 2.0

    code, out, _ = run_cli(capsys, "greeks", "--sigma", "0.2", "--r", "0.03",
                           "--s0", "100", "--s", "105", "--t", "0.5", "--T", "1")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"delta", "gamma", "theta", "vega", "rho"}


def test_iv_round_trip_and_domain_error(capsys):
    spec = MarketSpec.single(mu=0.03, sigma=0.2, rate=0.03, s0=100.0)
    observed = price_levered(spec, 105.0, 0.5, 1.0).price
    code, out, _ = run_cli(capsys, "iv", "--price", str(observed), "--s", "105",
                           "--s0", "100", "--t", "0.5", "--T", "1", "--r", "0.03")
    assert code == 0
    roots = json.loads(out)["roots"]
    assert min(abs(r - 0.2) for r in roots) < 1e-8

    # S/S0 underflows to 0; its log is taken as log S - log S0
    code, out, err = run_cli(capsys, "iv", "--price", "2", "--s", "1e-300", "--s0", "1e300",
                             "--t", "1", "--T", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["roots"] == pytest.approx([51.7393, 53.4044], abs=1e-4)

    # one candidate's repriced price overflows float64 and t^2/4 underflows to 0:
    # neither is a root
    for argv, roots in ((["--price", "1.7976931348617625e+308", "--s", "1", "--s0", "2",
                          "--t", "0.25", "--T", "1"], [150.67167983146268]),
                        (["--price", "2.2851505638612438e+129", "--s", "1", "--s0", "1",
                          "--t", "1.9150069733885168e-259", "--T", "1"], [])):
        code, out, err = run_cli(capsys, "iv", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["roots"] == roots

    code, _, err = run_cli(capsys, "iv", "--price", "1.2", "--s", "105",
                           "--s0", "100", "--t", "0.5", "--T", "1", "--r", "0.03")
    assert code == 3
    floor = math.sqrt(2.0) * math.exp(0.015)
    assert "minimum rational price" in err
    assert f"{floor!r}" in err

    # the floor e^{rt} sqrt(T/t) underflows to 0 at rt = -800, so 0 is refused on its own
    code, out, err = run_cli(capsys, "iv", "--price", "0", "--s", "1", "--s0", "1",
                             "--t", "0.5", "--T", "1", "--r", "-1600")
    assert (code, out, err) == (3, "", "error: observed price must be strictly positive\n")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--mode", "sideways", "--sigma", "0.2", "--s", "1",
              "--t", "0.5", "--T", "1"])
    assert exc.value.code == 2


def test_main_reuses_one_parser_without_sharing_parsed_state(monkeypatch, tmp_path, capsys):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        first = ["price", "--sigma", "0.2", "--r", "0.03", "--mu", "0.05", "--s0", "100",
                 "--s", "105", "--t", "0.5", "--T", "1", "--out", str(tmp_path / "run")]
        assert run_cli(capsys, *first)[0] == 0
        # --r, --mu and --out omitted: their defaults, not the first call's values
        code, out, _ = run_cli(capsys, "price", "--sigma", "0.2", "--s", "1.05",
                               "--t", "0.5", "--T", "1")
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    want = price_levered(MarketSpec.single(mu=0.0, sigma=0.2, rate=0.0), 1.05, 0.5, 1.0)
    assert (code, out) == (0, cli._json(want.as_record()) + "\n")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["manifest.json",
                                                                   "quote.json"]


def exit_output(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that exits, as argparse does on help or misuse."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_the_cached_parser_prints_what_a_fresh_one_prints(capsys):
    usage = ["price", "--mode", "sideways", "--sigma", "0.2", "--s", "1", "--t", "0.5",
             "--T", "1"]
    for argv in (["--help"], *([command, "--help"] for command in FLAGS), usage):
        want = exit_output(capsys, lambda a: build_parser().parse_args(a), argv)
        assert want[0] == (2 if argv is usage else 0)
        for _ in range(2):
            assert exit_output(capsys, main, argv) == want


def test_lattice_without_its_state_flags_exits_2(capsys):
    for argv in (["lattice", "--what", "price", "--N", "50"],
                 ["lattice", "--what", "price", "--N", "50", "--k", "3"],
                 ["lattice", "--what", "payoff", "--N", "50"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_missing_price_file_exits_4(capsys):
    code, _, err = run_cli(capsys, "backtest", "--prices", "/nonexistent/x.csv",
                           "--b", "0.5")
    assert code == 4
    assert "i/o error" in err


@pytest.mark.filterwarnings("error")
def test_unrepresentable_or_nonfinite_quotes_exit_3(capsys):
    deep = ["--sigma", "0.1", "--s", "1e30", "--t", "0.01", "--T", "2"]
    deep_lattice = ["lattice", "--N", "2000", "--u", "1.02", "--d", "0.98", "--rper", "0"]
    # S/S0 underflows: log C is finite, the price overflows and the intrinsic value is 0
    tiny_ratio = ["--sigma", "0.2", "--r", "-1600", "--mu", "-1600", "--s0", "1e300",
                  "--s", "1e-300", "--t", "0.5", "--T", "1"]
    for argv in (["price", *deep], ["greeks", *deep],
                 ["price", *tiny_ratio], ["price", "--mode", "unlevered", *tiny_ratio],
                 # gamma's denominator S^2 w^2 underflows to 0
                 ["greeks", "--sigma", "0.2", "--s", "1e-200", "--s0", "1e-200",
                  "--t", "0.5", "--T", "1"],
                 ["price", "--mode", "unlevered", "--sigma", "0.1", "--r", "400",
                  "--s", "1", "--t", "1.8", "--T", "2"],
                 ["price", "--sigma", "0.1", "--s", "1", "--t", "1", "--T", "nan"],
                 [*deep_lattice, "--what", "price", "--k", "2000", "--n", "2000"],
                 [*deep_lattice, "--what", "payoff", "--j", "2000"],
                 ["lattice", "--what", "demon", "--N", "3000", "--p", "0.9", "--seed", "1"],
                 # sigma^2 overflows above sqrt(float max); 1e154 squares to a finite number
                 *(["price", "--mode", mode, "--sigma", sigma, "--s", "1.1", "--t", "0.5",
                    "--T", "1"] for mode in ("levered", "unlevered") for sigma in ("1e300", "1e154")),
                 # z ~ 7e299: z' R^{-1} z overflows, so not even log C is representable
                 ["price", "--sigma", "1e-300", "--s", "2", "--s0", "1", "--t", "1", "--T", "2"],
                 # sigma sqrt(t) underflows to 0: z is refused
                 *(["price", "--mode", mode, "--sigma", "1e-300", "--s", "2", "--s0", "1",
                    "--t", "1e-300", "--T", "2"] for mode in ("levered", "unlevered")),
                 # the drift product (r - sigma^2/2) t overflows: z is refused
                 ["price", "--r=-1e300", "--mu", "0", "--sigma", "1", "--s", "1",
                  "--t", "1e10", "--T", "2e10"],
                 # the division by a subnormal sigma sqrt(t) overflows: z is refused
                 ["price", "--sigma", "1e-320", "--s", "1", "--t", "2", "--T", "3.7",
                  "--r", "1.99", "--mu", "2.99"],
                 # log(1 + premium) / T overflows at a subnormal T
                 ["curve", "--what", "regret", "--sigmas", "1e262", "--lo", "5e-324",
                  "--hi", "5e-324", "--count", "1"],
                 # z / (sigma sqrt(t)): the hedge's first fraction overflows
                 ["hedge", "--sigma", "1e-160", "--mu", "0.05", "--t0", "0.5", "--T", "1",
                  "--steps", "4", "--seed", "1"],
                 # e^{r dt} overflows: the hedge's wealth is not a float64
                 ["hedge", "--r", "1e300", "--mu", "0", "--sigma", "0.2", "--t0", "0.5",
                  "--T", "1", "--steps", "4", "--seed", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    # u = inf makes q = 0: the lattice itself is refused
    for what in (["--what", "payoff", "--j", "1"], ["--what", "price", "--k", "1", "--n", "1"]):
        code, out, err = run_cli(capsys, "lattice", "--N", "5", "--u", "inf", "--d", "0.5",
                                 *what)
        assert (code, out, err) == (3, "", "error: need 0 < d < 1 + r_per < u < inf\n")


def test_underflowed_quotes_exit_3(capsys):
    # rt = -800: log C is finite, but the price, V_t* and the Greeks underflow to 0
    tiny = ["--sigma", "0.2", "--r", "-1600", "--mu", "-1600", "--s0", "1e300",
            "--s", "3.6e-48", "--t", "0.5"]
    curve = ["curve", "--what", "payoff", "--r", "-1600", "--s0", "1e300", "--t", "0.5",
             "--lo", "1e-48", "--hi", "4e-48", "--count", "3"]
    for argv, log_api in ((["price", *tiny, "--T", "1"], "log_price_levered"),
                          # only V_t* underflows: the price is subnormal
                          (["price", *tiny, "--T", "1.5e69"], "log_price_levered"),
                          (["price", "--mode", "unlevered", *tiny, "--T", "1"],
                           "log_price_unlevered"),
                          (["greeks", *tiny, "--T", "1"], "log_price_levered"),
                          ([*curve, "--mode", "levered"], "log_intrinsic_value"),
                          ([*curve, "--mode", "unlevered"], "log_intrinsic_value")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: result is not representable in float64; use {log_api}\n"


def test_iv_refuses_nonfinite_inputs(capsys):
    good = {"--price": "1.5", "--s": "105", "--s0": "100", "--t": "0.5", "--T": "1",
            "--r": "0.03"}
    for flag, value in (("--price", "nan"), ("--price", "inf"), ("--s", "inf"),
                        ("--s", "nan"), ("--s0", "inf"), ("--s0", "-inf"), ("--r", "nan")):
        argv = [f"{key}={val}" for key, val in {**good, flag: value}.items()]
        code, out, err = run_cli(capsys, "iv", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "must be finite" in err


def reference_csv(header, rows):
    """The row-wise CSV writer the column-wise one replaced."""
    def cell(x):
        return repr(float(x)) if isinstance(x, float) else str(x)

    return "\n".join([",".join(header), *(",".join(map(cell, row)) for row in rows)]) + "\n"


@pytest.mark.parametrize("rows", [
    [],
    [[0.1, 1, "ok"]],
    [[math.nan, -3, "FAIL"], [math.inf, 0, "plain"], [-math.inf, 7, ""],
     [-0.0, 2**70, "x y"], [5e-324, True, "partial"], [1e300 / 3, -1, "z"]],
    [[np.float64(1.0) / 3, np.int64(4), np.str_("a")], [np.float64(-0.0), np.int64(-1), "b"],
     [np.float64(math.nan), np.int64(0), "c"]],
    # more rows than one piece of the writer
    [[x, i, f"r{i}"] for i, x in enumerate(np.random.default_rng(2).normal(size=2500).tolist())],
])
def test_csv_table_matches_the_row_wise_writer(rows):
    header = ["value", "count", "label"]
    columns = list(zip(*rows)) if rows else [(), (), ()]
    assert _csv_table(header, columns) == reference_csv(header, rows)
    floats = np.array([row[0] for row in rows], dtype=float)
    assert _csv_table(header[:1], [floats]) == reference_csv(header[:1], [[x] for x in floats])


def test_ledger_and_demon_csv_match_the_row_wise_writers():
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e-310])
    fractions = np.stack([special, special[::-1]], axis=1)
    ledger = HedgeLedger(times=special, wealth=special[::-1], fractions=fractions,
                         shares=-fractions, cash=special * 2.0)
    table = np.column_stack([ledger.times, ledger.wealth, ledger.cash,
                             ledger.fractions, ledger.shares])
    want = ("time,wealth,cash,fraction_1,fraction_2,shares_1,shares_2\n"
            + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
    assert _ledger_csv(ledger) == want

    demon = demon_simulation(40, 0.7, seed=3)
    want = "step,upticks,stock,wealth\n" + "".join(
        f"{int(step)},{int(ups)},{float(stock)!r},{float(wealth)!r}\n"
        for step, ups, stock, wealth in zip(demon.steps, demon.upticks, demon.stock,
                                            demon.wealth))
    assert _demon_csv(demon) == want


def test_lattice_subcommands(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "lattice", "--what", "payoff", "--N", "2",
                           "--j", "1", "--u", "2", "--d", "0.5", "--rper", "0")
    assert code == 0
    assert json.loads(out)["payoff"] == pytest.approx(1.125)

    code, out, _ = run_cli(capsys, "lattice", "--what", "price", "--N", "6",
                           "--k", "2", "--n", "3", "--u", "1.2", "--d", "0.9",
                           "--rper", "0.01", "--mode", "unlevered")
    assert code == 0
    assert json.loads(out)["price"] > 1.0

    code, out, _ = run_cli(capsys, "lattice", "--what", "demon", "--N", "6",
                           "--p", "0.5", "--seed", "4", "--out", str(tmp_path / "demon"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,upticks,stock,wealth"
    assert len(lines) == 8
    assert ((tmp_path / "demon" / "demon.csv").read_bytes()
            == _demon_csv(demon_simulation(6, 0.5, 4)).encode("utf-8"))


@pytest.mark.filterwarnings("error")
def test_lattice_with_a_subnormal_q_prints_finite_values(capsys):
    # q = 0.5 / 1e308 is subnormal, so j / q overflows although the payoff is a float64
    tiny_q = ["lattice", "--N", "5", "--u", "1e308", "--d", "0.5"]
    for argv, key, want in (
            ([*tiny_q, "--what", "payoff", "--j", "1"], "payoff", 1.6384e307),  # (1/5)^5 (1/q) 4^4
            ([*tiny_q, "--what", "payoff", "--j", "1", "--mode", "unlevered"], "payoff",
             1.6384e307),  # b(1, 5) = 0.4: the levered payoff
            ([*tiny_q, "--what", "price", "--k", "0", "--n", "0"], "price", 10970 / 5**5)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        value = json.loads(out)[key]
        assert math.isfinite(value) and value == pytest.approx(want, rel=1e-12)


def test_backtest_subcommand(tmp_path, capsys):
    csv = tmp_path / "px.csv"
    csv.write_text("time,px\n0.0,100\n1.0,200\n2.0,100\n")
    code, out, _ = run_cli(capsys, "backtest", "--prices", str(csv), "--b", "0.5")
    assert code == 0
    summary = json.loads(out)
    assert summary["terminal_wealth"] == pytest.approx(1.125)
    assert summary["ruined"] is False

    bad = {"nan": "time,px\n0.0,100\n1.0,nan\n", "inf": "time,px\n0.0,100\n1.0,inf\n",
           "nan_time": "time,px\n0.0,100\nnan,200\n",
           "doubling": "time,px\n0,100\n1,200\n2,400\n",
           "wide_time": "time,px\n-1e308,100\n1e308,200\n"}
    for name, text in bad.items():
        (tmp_path / f"{name}.csv").write_text(text)
    for argv in ([str(tmp_path / "nan.csv"), "--b", "0.5"],
                 [str(tmp_path / "inf.csv"), "--b", "0.5"],
                 [str(tmp_path / "nan_time.csv"), "--b", "0.5"],
                 [str(tmp_path / "doubling.csv"), "--b", "1e200"],
                 [str(tmp_path / "wide_time.csv"), "--b", "0.5"],
                 [str(csv), "--b", "nan"],
                 [str(csv), "--b", "0.5", "--rate", "inf"]):
        code, out, err = run_cli(capsys, "backtest", "--prices", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1


def test_simulate_and_hedge_small_runs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "sim1", "--T", "20",
                           "--paths", "3", "--seed", "2", "--out", str(tmp_path / "sim"))
    assert code == 0
    summary = json.loads(out)
    assert summary["kelly_growth_rate"] == pytest.approx(0.0917, abs=1e-3)
    paths_csv = (tmp_path / "sim" / "paths.csv").read_text().splitlines()
    assert paths_csv[0] == "path,terminal_wealth,cagr"
    assert len(paths_csv) == 4

    code, _, _ = run_cli(capsys, "simulate", "--scenario", "sim3", "--T", "20", "--warmup", "1",
                         "--steps-per-year", "12", "--paths", "10000",
                         "--out", str(tmp_path / "wide"))
    assert code == 0
    paths_csv = (tmp_path / "wide" / "paths.csv").read_text().splitlines()
    assert len(paths_csv) == 1 + 10_000 and paths_csv[-1].startswith("9999,")

    code, out, _ = run_cli(capsys, "hedge", "--sigma", "0.3", "--r", "0.02",
                           "--mu", "0.07", "--t0", "1", "--T", "2",
                           "--steps", "400", "--seed", "11", "--out", str(tmp_path / "hedge"))
    assert code == 0
    assert json.loads(out)["terminal_wealth"] > 0
    spec = MarketSpec.single(mu=0.07, sigma=0.3, rate=0.02)
    path = simulate_paths(spec, 2.0, 400, 1, seed=11)[0]
    assert ((tmp_path / "hedge" / "ledger.csv").read_bytes()
            == _ledger_csv(hedge_path(spec, path, 1.0, 2.0)).encode("utf-8"))


def test_simulate_builds_no_grid(tmp_path, capsys):
    # a grid of 2e14 steps would not fit in memory; the run prices two points per path
    code, _, err = run_cli(capsys, "simulate", "--scenario", "sim1", "--T", "200",
                           "--warmup", "5", "--steps-per-year", "1000000000000",
                           "--paths", "2", "--out", str(tmp_path / "fine"))
    assert (code, err) == (0, "")
    assert len((tmp_path / "fine" / "paths.csv").read_text().splitlines()) == 3


@pytest.mark.filterwarnings("error")
def test_overflowing_paths_and_hedges_exit_3_with_one_line(tmp_path, capsys):
    spec = tmp_path / "fast.cfg"
    save_market_spec(MarketSpec.single(mu=50.0, sigma=0.2, rate=0.0), str(spec))
    for argv in (["simulate", "--scenario", "custom", "--config", str(spec), "--T", "20",
                  "--warmup", "1", "--steps-per-year", "1", "--paths", "2"],
                 ["hedge", "--mu", "50", "--sigma", "0.2", "--r", "0", "--t0", "1", "--T", "20",
                  "--steps", "4", "--seed", "1"],
                 # the drift product mu dt overflows before the exp does
                 ["hedge", "--mu", "1e308", "--sigma", "0.2", "--r", "0", "--t0", "1", "--T", "20",
                  "--steps", "4", "--seed", "1"],
                 ["hedge", "--r", "1e300", "--mu", "0", "--sigma", "0.2", "--t0", "0.5",
                  "--T", "1", "--steps", "4", "--seed", "1"],
                 # a grid of 1e12 steps fails at its first allocation
                 ["hedge", "--mu", "0", "--sigma", "0.2", "--r", "0", "--t0", "1", "--T", "2",
                  "--steps", "1000000000000", "--seed", "1"],
                 # 10^15 float64 values exceed the address space: these fail at once too
                 ["curve", "--what", "regret", "--count", "1000000000000000"],
                 ["curve", "--what", "payoff", "--count", "1000000000000000"],
                 ["lattice", "--what", "demon", "--N", "1000000000000000"],
                 ["simulate", "--scenario", "sim1", "--paths", "1000000000000000"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--states", "2",
                           "--paths", "60000", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("mode,n,t,T,closed,mc_mean,mc_std_error,gap_in_std_errors,"
                        "status,estimator,max_share")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row[8] == "ok"
        assert row[9] == ("plain" if float(row[2]) > 0.75 * float(row[3]) else "partial")
        assert 0.0 < float(row[10]) < 1.0


def test_verify_heavy_tailed_state_passes(capsys):
    # Failed at 4.65 standard errors while t in (T/2, 3T/4] took the plain
    # estimator, whose standard error has infinite variance there.
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--states", "3",
                           "--paths", "2000000", "--seed", "75739799")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[8] for row in rows] == ["ok"] * 3


def test_curve_tables(capsys):
    code, out, _ = run_cli(capsys, "curve", "--what", "payoff", "--sigmas",
                           "0.2,0.4", "--t", "5", "--lo", "50", "--hi", "150",
                           "--count", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,sigma_0.2,sigma_0.4"
    assert len(lines) == 6

    code, out, _ = run_cli(capsys, "curve", "--what", "regret", "--sigmas", "0.7",
                           "--lo", "1", "--hi", "5", "--count", "3")
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[1]) == pytest.approx(0.0970, abs=1e-3)

    for argv in (["--what", "payoff", "--sigmas", "-0.3"], ["--what", "payoff", "--hi", "inf"],
                 ["--what", "regret", "--lo", "nan"], ["--what", "regret", "--hi", "inf"],
                 ["--what", "regret", "--sigmas", "nan"]):
        code, out, err = run_cli(capsys, "curve", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_regret_curve_is_exact_at_tiny_horizons(capsys):
    # log(1 + x) rounds 1 + x; at T = 1e-320 it printed 0.0 for a rate of ~1.2e159
    code, out, _ = run_cli(capsys, "curve", "--what", "regret", "--sigmas", "0.3",
                           "--lo", "1e-320", "--hi", "1e-20", "--count", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(T) for T, _ in rows] == [1e-320, 1e-20]
    for T, rate in rows:
        with mp.workdps(30):
            T = mpf(float(T))
            want = float(mp.log1p(mpf(0.3) * mp.sqrt(T / (2 * mp.pi))) / T)
        assert float(rate) == pytest.approx(want, rel=1e-14)


def test_regret_curve_is_finite_where_the_premium_overflows(capsys):
    # sigma sqrt(T / (2 pi)) overflows: the rate is taken from its log
    code, out, _ = run_cli(capsys, "curve", "--what", "regret", "--sigmas", "1e300",
                           "--lo", "1e20", "--hi", "1e30", "--count", "2")
    assert code == 0
    rows = np.array([line.split(",") for line in out.strip().splitlines()[1:]], dtype=float)
    np.testing.assert_allclose(rows, [[1e20, 7.1288244029494949e-18],
                                      [1e30, 7.2439536575991972e-28]], rtol=1e-14, atol=0)


def test_config_file_with_flag_overrides(tmp_path, capsys):
    spec = MarketSpec.single(mu=0.05, sigma=0.4, rate=0.01, s0=1.0)
    cfg = tmp_path / "mkt.cfg"
    save_market_spec(spec, str(cfg))
    code, out, _ = run_cli(capsys, "price", "--config", str(cfg), "--sigma", "0.2",
                           "--r", "0.03", "--s0", "100", "--s", "105",
                           "--t", "0.5", "--T", "1")
    assert code == 0
    expected = price_levered(MarketSpec.single(mu=0.05, sigma=0.2, rate=0.03,
                                               s0=100.0), 105.0, 0.5, 1.0).price
    assert json.loads(out)["price"] == expected


def test_multi_asset_price_through_a_config(tmp_path, capsys):
    spec = MarketSpec.pair(mu=(0.05, 0.08), sigma=(0.4, 0.6), rho=0.3,
                           rate=0.02, s0=(1.0, 1.0))
    cfg = tmp_path / "pair.cfg"
    save_market_spec(spec, str(cfg))
    code, out, _ = run_cli(capsys, "price", "--config", str(cfg),
                           "--s", "1.1,0.9", "--t", "1", "--T", "2")
    assert code == 0
    expected = price_levered(spec, [1.1, 0.9], 1.0, 2.0)
    record = json.loads(out)
    assert record["price"] == expected.price
    assert record["factor"] == 2.0  # (T/t)^{n/2} with n = 2

    code, _, err = run_cli(capsys, "price", "--config", str(cfg), "--sigma", "0.5",
                           "--s", "1.1,0.9", "--t", "1", "--T", "2")
    assert code == 3
    assert "multi-asset" in err

    # --r overrides a multi-asset config's rate and keeps the rest of the spec
    code, out, err = run_cli(capsys, "price", "--config", str(cfg), "--r", "0.05",
                             "--s", "1.1,0.9", "--t", "1", "--T", "2")
    assert (code, err) == (0, "")
    repriced = MarketSpec.pair(mu=(0.05, 0.08), sigma=(0.4, 0.6), rho=0.3, rate=0.05)
    assert json.loads(out)["price"] == price_levered(repriced, [1.1, 0.9], 1.0, 2.0).price


def test_spec_and_price_flag_refusals_exit_3_with_one_line(capsys):
    for argv, message in (
            (["price", "--s", "1", "--t", "0.5", "--T", "1"],
             "either --config or --sigma is required"),
            (["greeks", "--sigma", "0.2", "--s", "1,2", "--t", "0.5", "--T", "1"],
             "expected 1 prices in --s, got 2"),
            (["price", "--sigma", "0.2", "--s", "", "--t", "0.5", "--T", "1"],
             "expected 1 prices in --s, got 0"),
            (["simulate", "--scenario", "custom", "--paths", "2"],
             "custom scenario requires --config"),
            # a chunk loop that would run for years is refused before its first draw
            (["verify", "--paths", "1000000000000000"],
             "at most 10,000,000,000 paths per call, got 1,000,000,000,000,000"),
            # a verify run of no states checks nothing: it is refused, not passed
            (["verify", "--states", "0"], "--states must be >= 1"),
            (["verify", "--states", "-1"], "--states must be >= 1"),
            (["verify", "--seed", "-1"], "seed must be nonnegative"),
            (["lattice", "--what", "demon", "--N", "10", "--seed", "-1"],
             "seed must be nonnegative")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")


# Each subcommand's flags as the manifest records them: every flag but --out.
MARKET = {"config", "sigma", "r", "mu", "s0"}
FLAGS = {
    "price": MARKET | {"mode", "s", "t", "T"},
    "greeks": MARKET | {"s", "t", "T"},
    "iv": {"price", "s", "s0", "t", "T", "r"},
    "lattice": {"what", "u", "d", "rper", "N", "mode", "k", "n", "j", "p", "seed"},
    "simulate": {"scenario", "config", "T", "warmup", "steps_per_year", "paths", "seed"},
    "hedge": MARKET | {"t0", "T", "steps", "mode", "measure", "seed"},
    "backtest": {"prices", "b", "interval", "rate"},
    "verify": {"n", "states", "paths", "seed"},
    "curve": {"what", "sigmas", "r", "s0", "t", "mode", "lo", "hi", "count"},
}
RUNS = {
    "price-levered": ["price", "--sigma", "0.2", "--r", "0.03", "--s0", "100", "--s", "105",
                      "--t", "0.5", "--T", "1"],
    "price-unlevered": ["price", "--mode", "unlevered", "--sigma", "0.3", "--s", "1.2",
                        "--t", "1", "--T", "2"],
    "greeks": ["greeks", "--sigma", "0.2", "--mu", "0.05", "--s", "1.1", "--t", "0.5",
               "--T", "1"],
    "iv": ["iv", "--price", "1.51", "--s", "105", "--s0", "100", "--t", "0.5", "--T", "1"],
    "lattice-demon": ["lattice", "--what", "demon", "--N", "40", "--p", "0.5", "--seed", "17"],
    "lattice-price": ["lattice", "--N", "6", "--k", "2", "--n", "3", "--u", "1.2",
                      "--d", "0.9", "--rper", "0.01"],
    "lattice-payoff": ["lattice", "--what", "payoff", "--N", "4", "--j", "1",
                       "--mode", "unlevered"],
    "simulate": ["simulate", "--scenario", "sim3", "--T", "8", "--paths", "3", "--seed", "2"],
    "simulate-custom": ["simulate", "--scenario", "custom", "--config", "{spec}", "--T", "4",
                        "--warmup", "1", "--paths", "2", "--seed", "3"],
    "hedge": ["hedge", "--sigma", "0.3", "--r", "0.02", "--t0", "1", "--T", "2",
              "--steps", "200", "--mode", "unlevered", "--seed", "5"],
    "backtest": ["backtest", "--prices", "{prices}", "--b", "0.5", "--interval", "2",
                 "--rate", "0.001"],
    "verify": ["verify", "--states", "1", "--paths", "20000", "--seed", "3"],
    "curve-payoff": ["curve", "--what", "payoff", "--sigmas", "0.2,0.4", "--count", "4"],
    "curve-regret": ["curve", "--what", "regret", "--lo", "1", "--hi", "5", "--count", "3"],
}


def run_argv(name, tmp_path):
    """The argv of ``RUNS[name]``, with the input files it names written to tmp_path."""
    prices = tmp_path / "px.csv"
    prices.write_text("time,px\n0,100\n1,120\n2,90\n3,130\n4,125\n")
    spec = tmp_path / "market.spec"
    save_market_spec(MarketSpec.single(mu=0.06, sigma=0.25, rate=0.01), str(spec))
    return [arg.format(prices=prices, spec=spec) for arg in RUNS[name]]


@pytest.mark.parametrize("name", list(RUNS))
def test_every_subcommand_records_and_replays_its_run(name, tmp_path, capsys):
    argv = run_argv(name, tmp_path)
    command = argv[0]
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "run1"))
    assert code == 0
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["version"] == __version__ == "0.1.0"
    assert set(manifest["parameters"]) == FLAGS[command]
    assert manifest["seed"] == manifest["parameters"].get("seed")
    if "--seed" in argv:
        assert manifest["seed"] == int(argv[argv.index("--seed") + 1])
    assert out in [(tmp_path / "run1" / file).read_text() for file in manifest["outputs"]]

    code, _, _ = run_cli(capsys, *manifest["argv"], "--out", str(tmp_path / "run2"))
    assert code == 0
    files = sorted(p.name for p in (tmp_path / "run1").iterdir())
    assert files == sorted(manifest["outputs"] + ["manifest.json"])
    assert files == sorted(p.name for p in (tmp_path / "run2").iterdir())
    for file in files:
        assert (tmp_path / "run1" / file).read_bytes() == (tmp_path / "run2" / file).read_bytes()

    if "seed" not in FLAGS[command]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2


def test_every_flag_is_read_by_its_handler(tmp_path, capsys):
    # A flag no handler reads only pads the manifest: each must be read in some run.
    read = {command: set() for command in FLAGS}

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            read[argv[0]].add(name)
            return super().__getattribute__(name)

    for name in RUNS:
        argv = run_argv(name, tmp_path)
        args = cli.build_parser().parse_args(argv)
        assert args.handler(Recorder(**vars(args))) == 0
    capsys.readouterr()
    unread = {command: sorted(FLAGS[command] - read[command]) for command in FLAGS}
    assert unread == {command: [] for command in FLAGS}


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_ruined_backtest_writes_null_cagr(tmp_path, capsys):
    prices = tmp_path / "ruin.csv"
    prices.write_text("time,px\n0,100\n1,10\n2,20\n")
    code, out, _ = run_cli(capsys, "backtest", "--prices", str(prices), "--b", "2",
                           "--out", str(tmp_path / "run"))
    assert code == 0
    for record in (_strict_json(out),
                   _strict_json((tmp_path / "run" / "summary.json").read_text())):
        assert (record["cagr"], record["ruined"], record["ruin_index"]) == (None, True, 1)


def test_a_nonfinite_record_value_exits_3_before_any_output(tmp_path, capsys):
    # A demon run ignores --u, but its manifest would have to record NaN.
    code, out, err = run_cli(capsys, "lattice", "--what", "demon", "--N", "5", "--u", "nan",
                             "--out", str(tmp_path / "run"))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_verify_reports_a_gap_at_zero_standard_error(monkeypatch, capsys):
    def no_spread(spec, s, t, T, mode):
        closed = (cli.price_levered if mode == "levered" else cli.price_unlevered)(spec, s, t, T)
        mean = closed.price * (1.0 + 1e-9) if mode == "levered" else closed.price
        return McEstimate(mean=mean, std_error=0.0, n_paths=2, seed=0, estimator="exact",
                          s_eval=T, n_obs=1, max_share=1.0)

    def no_spreads(spec, s, t, T, modes, **kwargs):
        return tuple(no_spread(spec, s, t, T, mode) for mode in modes)

    monkeypatch.setattr(cli, "mc_prices", no_spreads)
    code, out, _ = run_cli(capsys, "verify", "--states", "1", "--paths", "2")
    assert code == 1
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(row[0], row[7], row[8]) for row in rows] == [("levered", "inf", "FAIL"),
                                                          ("unlevered", "nan", "FAIL")]


# SHA-256 of verify's stdout at seed 1, where every row is ok; the Monte Carlo
# columns move only where the oracle's arithmetic or streams change on purpose.
VERIFY_STDOUT_SHA256 = {
    1: "4c0c1355531cba58a44042ffaaed8ad41d3033bc8631ae088ef56ed4a1249754",
    2: "4f5dc884db07939412a92d0cb75998e4527dc73576e88fefdb471efa12c3ac49",
    3: "8dd6c1b62d48418477ce166eca17a301cdd35fe457546753f07aa789161075c4",
}


@pytest.mark.parametrize("n", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_keeps_its_bytes(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--n", str(n), "--states", "2",
                             "--paths", "200002", "--seed", "1")
    assert (code, err) == (0, "")
    assert [line.split(",")[8] for line in out.splitlines()[1:]] == ["ok"] * (4 if n == 1 else 2)
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[n]


def test_stdout_is_deterministic(capsys):
    args = ("simulate", "--scenario", "sim2", "--T", "15", "--paths", "2",
            "--seed", "8")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2

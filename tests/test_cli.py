"""Command-line front end: records, artifacts, manifests, exit codes."""

import json
import math

import pytest

from hindsight_options import (
    MarketSpec,
    demon_simulation,
    hedge_path,
    price_levered,
    save_market_spec,
    simulate_paths,
    write_demon_csv,
    write_ledger_csv,
)
from hindsight_options.cli import main


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

    code, _, err = run_cli(capsys, "iv", "--price", "1.2", "--s", "105",
                           "--s0", "100", "--t", "0.5", "--T", "1", "--r", "0.03")
    assert code == 3
    floor = math.sqrt(2.0) * math.exp(0.015)
    assert "minimum rational price" in err
    assert f"{floor!r}" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--mode", "sideways", "--sigma", "0.2", "--s", "1",
              "--t", "0.5", "--T", "1"])
    assert exc.value.code == 2


def test_missing_price_file_exits_4(capsys):
    code, _, err = run_cli(capsys, "backtest", "--prices", "/nonexistent/x.csv",
                           "--b", "0.5")
    assert code == 4
    assert "i/o error" in err


def test_unrepresentable_or_nonfinite_quotes_exit_3(capsys):
    deep = ["--sigma", "0.1", "--s", "1e30", "--t", "0.01", "--T", "2"]
    deep_lattice = ["lattice", "--N", "2000", "--u", "1.02", "--d", "0.98", "--rper", "0"]
    for argv in (["price", *deep], ["price", "--mode", "unlevered", *deep],
                 ["greeks", *deep],
                 ["price", "--sigma", "0.1", "--s", "1", "--t", "1", "--T", "nan"],
                 [*deep_lattice, "--what", "price", "--k", "2000", "--n", "2000"],
                 [*deep_lattice, "--what", "payoff", "--j", "2000"],
                 ["lattice", "--what", "demon", "--N", "3000", "--p", "0.9", "--seed", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1


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
    write_demon_csv(demon_simulation(6, 0.5, 4), str(tmp_path / "demon.csv"))
    assert ((tmp_path / "demon" / "demon.csv").read_bytes()
            == (tmp_path / "demon.csv").read_bytes())


def test_backtest_subcommand(tmp_path, capsys):
    csv = tmp_path / "px.csv"
    csv.write_text("time,px\n0.0,100\n1.0,200\n2.0,100\n")
    code, out, _ = run_cli(capsys, "backtest", "--prices", str(csv), "--b", "0.5")
    assert code == 0
    summary = json.loads(out)
    assert summary["terminal_wealth"] == pytest.approx(1.125)
    assert summary["ruined"] is False


def test_simulate_and_hedge_small_runs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "sim1", "--T", "20",
                           "--paths", "3", "--seed", "2", "--out", str(tmp_path / "sim"))
    assert code == 0
    summary = json.loads(out)
    assert summary["kelly_growth_rate"] == pytest.approx(0.0917, abs=1e-3)
    paths_csv = (tmp_path / "sim" / "paths.csv").read_text().splitlines()
    assert paths_csv[0] == "path,terminal_wealth,cagr"
    assert len(paths_csv) == 4

    code, out, _ = run_cli(capsys, "hedge", "--sigma", "0.3", "--r", "0.02",
                           "--mu", "0.07", "--t0", "1", "--T", "2",
                           "--steps", "400", "--seed", "11", "--out", str(tmp_path / "hedge"))
    assert code == 0
    assert json.loads(out)["terminal_wealth"] > 0
    spec = MarketSpec.single(mu=0.07, sigma=0.3, rate=0.02)
    path = simulate_paths(spec, 2.0, 400, 1, seed=11)[0]
    write_ledger_csv(hedge_path(spec, path, 1.0, 2.0), str(tmp_path / "ledger.csv"))
    assert ((tmp_path / "hedge" / "ledger.csv").read_bytes()
            == (tmp_path / "ledger.csv").read_bytes())


def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--states", "2",
                           "--paths", "60000", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("mode,n,t,T,closed")
    assert all(line.endswith(",ok") for line in lines[1:])


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


def test_manifest_replays_to_identical_artifacts(tmp_path, capsys):
    first = tmp_path / "run1"
    code, _, _ = run_cli(capsys, "lattice", "--what", "demon", "--N", "40",
                         "--p", "0.5", "--seed", "17", "--out", str(first))
    assert code == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["command"] == "lattice"
    assert manifest["seed"] == 17
    assert manifest["outputs"] == ["demon.csv"]

    second = tmp_path / "run2"
    code, _, _ = run_cli(capsys, *manifest["argv"], "--out", str(second))
    assert code == 0
    for name in manifest["outputs"]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_stdout_is_deterministic(capsys):
    args = ("simulate", "--scenario", "sim2", "--T", "15", "--paths", "2",
            "--seed", "8")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2

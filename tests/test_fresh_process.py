"""Commands run in a fresh interpreter, as every CLI call does.

scipy is imported on first use (``hindsight._scipy``).  These tests pin which
commands never load it, and that a kernel's first call in a process, the one
that imports scipy, prints the bytes the warm process of the test session prints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
# The warm side: this process has scipy loaded before any kernel runs.
import scipy.linalg.lapack  # noqa: F401
import scipy.special  # noqa: F401

import hindsight_options
from hindsight_options import MarketSpec, save_market_spec
from hindsight_options.cli import main

SRC = Path(hindsight_options.__file__).resolve().parents[1]

# Runs each argv (a JSON list of argvs) through cli.main, then reports on stderr
# the scipy modules loaded after the import and after the commands.
CHILD = """
import json, sys
import hindsight_options, hindsight_options.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = {"import": scipy_modules(), "codes": []}
for argv in json.loads(sys.argv[1]):
    loaded["codes"].append(hindsight_options.cli.main(argv))
loaded["run"] = scipy_modules()
print(json.dumps(loaded), file=sys.stderr)
"""


def run_fresh(*argvs):
    """stdout and the loaded-module report of one fresh interpreter running ``argvs``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_import_and_scipy_free_commands_load_no_scipy(tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text("time,a,b\n0,1,1\n1,1.1,0.9\n2,1.2,1.0\n", encoding="utf-8")
    one = ["--sigma", "0.2", "--r", "0.03", "--s0", "100", "--s", "105", "--t", "0.5", "--T", "1"]
    argvs = [["price", *one],
             ["greeks", *one],
             ["iv", "--price", "1.5", "--s", "105", "--s0", "100", "--t", "0.5", "--T", "1",
              "--r", "0.03"],
             ["hedge", "--sigma", "0.2", "--mu", "0.05", "--t0", "0.5", "--T", "1",
              "--steps", "200", "--seed", "1"],
             ["backtest", "--prices", str(prices), "--b", "0.5,0.3"],
             ["simulate", "--scenario", "sim1", "--T", "10", "--warmup", "1", "--paths", "20"]]
    _, loaded = run_fresh(*argvs)
    assert loaded == {"import": [], "codes": [0] * len(argvs), "run": []}


@pytest.fixture
def three_assets(tmp_path):
    spec = MarketSpec(n=3, mu=[0.05, 0.06, 0.07], sigma=[0.2, 0.3, 0.25],
                      corr=[[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]],
                      rate=0.02, s0=[1.0, 1.0, 1.0])
    path = tmp_path / "three.cfg"
    save_market_spec(spec, str(path))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["price", "--mode", "unlevered", "--sigma", "0.2", "--r", "0.03", "--s0", "100",
     "--s", "105", "--t", "0.5", "--T", "1"],
    ["lattice", "--what", "price", "--N", "40", "--k", "7", "--n", "12"],
    ["price", "--config", "THREE", "--s", "1.1,0.9,1.05", "--t", "1", "--T", "2"],
    ["verify", "--n", "1", "--paths", "2000"],
], ids=["unlevered-price", "lattice-price", "three-asset-price", "verify"])
def test_first_scipy_call_prints_the_warm_bytes(argv, three_assets, capsys):
    argv = [three_assets if arg == "THREE" else arg for arg in argv]
    out, loaded = run_fresh(argv)
    assert loaded["import"] == [] and "scipy" in loaded["run"]
    assert main(argv) == loaded["codes"][0] == 0
    warm = capsys.readouterr().out
    assert out == warm and out

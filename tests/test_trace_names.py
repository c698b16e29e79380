"""The per-layer metrics of BENCHMARK.json name functions that exist.

The benchmark's trace wraps every public function of the package and reports
``<module>.<function>.calls`` and ``.self_s`` for the ones BENCHMARK.json
lists; it stops with an error when a listed function is missing.  Its
counters also read named arguments of a few functions, and its workloads and
kernel cases call package names as ``ho.<name>`` or ``ho.<module>.<name>``.
These tests make such a deletion or rename fail here first.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np

import hindsight_options as ho
import hindsight_options.cli  # noqa: F401  (the tracer wraps every traced module)

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_function_names_are_public_functions():
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = {match.groups() for name in names
              if (match := re.fullmatch(r"(\w+)\.(\w+)\.(?:calls|self_s)", name))}
    assert traced
    missing = []
    for module_name, function in sorted(traced):
        module = importlib.import_module(f"hindsight_options.{module_name}")
        obj = getattr(module, function, None)
        if (function.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__):
            missing.append(f"{module_name}.{function}")
    assert missing == []


def _load_tracer():
    """``perfbench/tracer.py`` as a module, loaded by path."""
    path = BENCHMARK.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counters_read_arguments_that_exist():
    """Each counted function runs once under the tracer: a renamed argument fails here."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer(ho)
    spec = ho.MarketSpec.single(mu=0.05, sigma=0.2, rate=0.02)
    tracer.install()
    tracer.enabled = True
    try:
        ho.mc_price(spec, 1.0, 0.5, 1.0, n_paths=64, seed=1)
        path = ho.simulate_paths(spec, 1.0, 8, 1, seed=1)[0]
        ho.hedge_path(spec, path, 0.5, 1.0)
        config = ho.SimulationConfig(spec=spec, T=2.0, warmup=1.0, steps_per_year=4,
                                     n_paths=2, seed=1)
        ho.run_growth_simulation(config)
        ho.lattice_log_price(ho.shannon_spec(4), ho.LatticeState(1, 2))
        table = ho.PriceTable(times=np.array([0.0, 1.0, 2.0]),
                              prices=np.array([[1.0], [2.0], [1.0]]), columns=("px",))
        ho.discrete_backtest(table, [0.5])
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert set(tracer.counts) == {"market.path_steps", "mc.obs", "replication.ledger_rows",
                                  "lattice.sum_terms"}
    summary = tracer.summary()
    assert all(summary[name]["calls"] == 1 for name in tracer_module.COUNTERS)


def _package_names(source: str) -> set[str]:
    """The dotted names ``source`` reads off the package's import alias, as ``ho.market.f``."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "hindsight_options"}
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join(reversed(chain)))
    return names


def test_every_package_name_perfbench_calls_resolves():
    names = set().union(*(_package_names(path.read_text())
                          for path in sorted((BENCHMARK.parent / "perfbench").glob("*.py"))))
    assert {"scenario_config", "validate_market", "multi_delta",
            "market.cholesky_with_tolerance"} <= names
    missing = []
    for name in sorted(names):
        obj = ho
        for part in name.split("."):
            obj = getattr(obj, part, missing)
        if obj is missing:
            missing.append(name)
    assert missing == []

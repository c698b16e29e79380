"""The per-layer metrics of BENCHMARK.json name functions that exist.

The benchmark's trace wraps every public function of the package and reports
``<module>.<function>.calls`` and ``.self_s`` for the ones BENCHMARK.json
lists; it stops with an error when a listed function is missing.  This test
makes such a deletion fail here first.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

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

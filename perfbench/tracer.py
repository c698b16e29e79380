"""Outside-in spans around the public functions of hindsight_options.

The package's modules import one another by name (``hindsight`` holds its own
reference to ``market.cholesky_with_tolerance``), so wrapping a function in
its defining module alone would miss most calls.  :class:`Tracer` rebinds
every public function of the traced modules in every package namespace that
holds it, and records one span per call: name, start, end and parent span.
Spans stay in memory; :meth:`Tracer.summary` folds them into call counts and
self times, and :meth:`Tracer.write_spans` writes them out when the run ends.

A few wrappers also count work at the boundary, read from the call's
arguments or result: path-steps drawn, Monte Carlo observations, ledger rows
and lattice sum terms.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "hindsight_options"
MODULES = ("market", "hindsight", "pricing", "lattice", "replication", "mc", "cli")


def _bound(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _path_steps(a: dict, result) -> tuple[str, float]:
    return "market.path_steps", float(a["steps"]) * float(a["n_paths"])


def _mc_obs(a: dict, result) -> tuple[str, float]:
    n_paths = int(a["n_paths"])
    return "mc.obs", float(n_paths // 2 if a["antithetic"] else n_paths)


def _ledger_rows(a: dict, result) -> tuple[str, float]:
    return "replication.ledger_rows", float(len(result.wealth))


def _growth_rows(a: dict, result) -> tuple[str, float]:
    cfg = a["config"]
    return ("replication.ledger_rows",
            float(cfg.n_paths) * (round(cfg.T * cfg.steps_per_year) + 1))


def _sum_terms(a: dict, result) -> tuple[str, float]:
    return "lattice.sum_terms", float(a["spec"].n_steps - a["state"].n + 1)


COUNTERS = {
    "market.simulate_paths": _path_steps,
    "mc.mc_price": _mc_obs,
    "replication.hedge_path": _ledger_rows,
    "replication.discrete_backtest": _ledger_rows,
    "replication.run_growth_simulation": _growth_rows,
    "lattice.lattice_log_price": _sum_terms,
}


def public_functions(package) -> dict[str, object]:
    """``{"<module>.<function>": function}`` for every traced public function."""
    found = {}
    for short in MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Install with :meth:`install`, restore the originals with :meth:`uninstall`."""

    def __init__(self, package) -> None:
        self.package = package
        self.originals = public_functions(package)
        self.names = list(self.originals)
        self.enabled = False
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._name_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        counter = COUNTERS.get(self.names[name_id])
        sig = inspect.signature(fn) if counter else None
        stack, ids, parents = self._stack, self._name_ids, self._parents
        starts, ends, clock = self._starts, self._ends, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter:
                key, amount = counter(_bound(sig, args, kwargs), result)
                self.counts[key] += amount
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(i, fn)
                    for i, fn in enumerate(self.originals.values())}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def span_count(self) -> int:
        return len(self._starts)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per function over all spans.

        A span's self time is its duration minus the durations of its direct
        children, which nest inside it.
        """
        n = len(self._starts)
        child = [0.0] * n
        for i in range(n):
            p = self._parents[i]
            if p >= 0:
                child[p] += self._ends[i] - self._starts[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self._name_ids[i]]]
            entry["calls"] += 1
            entry["self_s"] += self._ends[i] - self._starts[i] - child[i]
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end (s), parent index or -1."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self._starts)):
                fh.write(json.dumps([self.names[self._name_ids[i]], self._starts[i],
                                     self._ends[i], self._parents[i]]) + "\n")

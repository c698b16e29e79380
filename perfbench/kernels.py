"""Kernel cases: one public function at one input size, timed on its own.

These reproduce the per-layer baseline table of ROADMAP.md.  Each case runs
the function untraced, repeats it, and reports the median per call in the
unit its name ends with.
"""

from __future__ import annotations

import statistics
import time


import hindsight_options as ho

from workloads import random_corr, random_spec, random_state, workload_rng


def _per_call(fn, calls: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def run_kernel_cases(seed: int) -> dict[str, tuple[float, str]]:
    """``{name: (value, unit)}`` for every kernel case, inputs drawn from ``seed``."""
    rng = workload_rng(seed, "quote_book")
    spec1, spec3 = random_spec(rng, 1), random_spec(rng, 3)
    s1, t1, T1 = random_state(rng, spec1)
    s3, t3, T3 = random_state(rng, spec3)
    corr50 = random_corr(rng, 50)
    late = 0.75 * T3  # t > T/2: the plain levered estimator
    s_late = random_state(rng, spec3)[0]
    sim3 = ho.scenario_config("sim3", T=200.0, n_paths=100, seed=int(rng.integers(0, 2**31)))
    path_seed = int(rng.integers(0, 2**31))
    demon_seed = int(rng.integers(0, 2**31))

    us, ms = 1e6, 1e3
    cases = {
        "pricing.price_levered.n3_us": (
            lambda: ho.price_levered(spec3, s3, t3, T3), 300, 7, us, "us"),
        "pricing.price_unlevered.n1_us": (
            lambda: ho.price_unlevered(spec1, s1, t1, T1), 300, 7, us, "us"),
        "pricing.greeks.n1_us": (
            lambda: ho.greeks(spec1, s1, t1, T1), 300, 7, us, "us"),
        "market.validate_market.n3_us": (
            lambda: ho.validate_market(spec3), 300, 7, us, "us"),
        "market.cholesky_with_tolerance.n50_ms": (
            lambda: ho.market.cholesky_with_tolerance(corr50), 5, 5, ms, "ms"),
        "market.simulate_paths.p100k_s1_s": (
            lambda: ho.simulate_paths(spec3, 1.0, 1, 100_000, seed=path_seed), 1, 1, 1.0, "s"),
        "market.simulate_paths.p1_s1e6_s": (
            lambda: ho.simulate_paths(spec3, 1.0, 1_000_000, 1, seed=path_seed), 1, 5, 1.0, "s"),
        "mc.mc_price.n3_1e6_s": (
            lambda: ho.mc_price(spec3, s_late, late, T3, "levered", n_paths=1_000_000,
                                seed=path_seed), 1, 3, 1.0, "s"),
        "replication.run_growth_simulation.sim3_p100_s": (
            lambda: ho.run_growth_simulation(sim3), 1, 3, 1.0, "s"),
        "lattice.demon_simulation.n300_ms": (
            lambda: ho.demon_simulation(300, 0.5, demon_seed), 1, 5, ms, "ms"),
    }
    return {name: (_per_call(fn, calls, repeats) * scale, unit)
            for name, (fn, calls, repeats, scale, unit) in cases.items()}

"""Benchmark of the hindsight_options library and its CLI.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload quote_book --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process.  The program is imported from ``src/`` of the checkout.  One
run builds one workload from ``--seed`` and replays its fixed batch of jobs
as a closed loop with one client, round after round, for ``--seconds``.
Every job's output is checked against an independent oracle; a job that
raises or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics.  The gated timings are CPU
seconds of the benchmark process, each job at its fastest over the rounds,
scaled by a calibration computation timed between jobs (see
``reference_seconds``), because the wall clock of a small shared machine
drifts by tens of percent; wall-clock figures are printed beside them.

``--trace 1`` reports the per-layer metrics: call counts and self times per
public function from spans recorded by rebinding those functions, work
counters, the tracing overhead from alternating untraced and traced rounds,
and the kernel cases.

Metric names and units are read from BENCHMARK.json.  A human-readable
report comes first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
and the spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One client in one process: the BLAS pool gets one thread too, because its
# idle threads spin, which both takes turns away from the loop being measured
# and adds their CPU time to it.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("quote_book", "mc_oracle", "path_replication", "lattice_demon")
# A seed never used while tuning the benchmark; a claimed gain must hold on it too.
HELD_OUT_SEED = 1810024850
SETUP_PROBES = 5
MIN_ROUNDS = 3
TRACE_MAX_ROUNDS = 25
TAIL_SAMPLES = 10
REF_EVERY_S = 0.1
# About the calibration computation's CPU time on a 2-vCPU x86-64 VM with
# Python 3.11 and numpy 2.4: the speed that scaled times are reported at.
REF_NOMINAL_S = 0.005


def import_package():
    """Import hindsight_options from this checkout's src/, never from elsewhere."""
    package_dir = SRC / "hindsight_options"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"error: {package_dir} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import hindsight_options

    if Path(hindsight_options.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"error: imported hindsight_options from {hindsight_options.__file__}")
    return hindsight_options


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --------------------------------------------------------------------------
# set-up


def setup_probe(name: str, seed: int) -> None:
    """Child process: import, build the workload, say ready, clean up."""
    import_package()
    import workloads

    work_dir = WORK_ROOT / f"probe-{os.getpid()}"
    workloads.build(name, seed, work_dir)
    print(f"ready {time.process_time()!r}", flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up of a fresh interpreter: from spawning it until its workload is ready.

    Returns the wall times, and the probe's CPU seconds at the reference
    speed, each scaled by a calibration run just before the probe.
    """
    wall, scaled = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        scale = speed_scale([[reference_seconds() for _ in range(5)]])
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline().split()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if len(line) != 2 or line[0] != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        wall.append(ready - start)
        scaled.append(float(line[1]) * scale)
    return wall, scaled


# --------------------------------------------------------------------------
# rounds


def reference_seconds() -> float:
    """CPU time of one fixed calibration computation: an interpreter loop, then numpy.

    A shared machine's speed drifts by tens of percent over minutes, much of
    it evenly across job kinds, and CPU time drifts with it.  Timing this
    fixed computation between jobs measures the drift, and dividing it out
    gives times at one reference speed.
    """
    import numpy as np

    start = time.process_time()
    acc = 0
    for k in range(30_000):
        acc += (k * k) % 7
    a = np.arange(65_536, dtype=float)
    for _ in range(10):
        a = np.sqrt(np.cumsum(a) + 1.0)
    return time.process_time() - start


def speed_scale(rounds: list[list[float]]) -> float:
    """Factor that turns CPU times measured now into times at the reference speed.

    ``rounds`` holds the calibration times of each round.  The per-job times
    being scaled are each job's fastest round, so the calibration is taken
    from its fastest round too, as that round's median.  Over ten runs per
    workload this tracked the drift better than the fastest single
    calibration or a quantile of all of them.
    """
    return REF_NOMINAL_S / min(statistics.median(r) for r in rounds if r)


class Round:
    """Latencies and failures of one pass over a workload's jobs.

    Each job is timed on the wall clock and in CPU seconds of the process.
    With one client, no worker threads and a one-thread BLAS, the two agree
    on an idle machine; only CPU time ignores turns lost to other processes.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.failures: list[str] = []
        self.reference: list[float] = []
        self.own_s = 0.0
        self.elapsed = 0.0
        self.bytes_out = 0
        self.verify: dict[str, int] = {}


def run_round(workload, workloads_mod, tracer=None) -> Round:
    """Run every job once, in order; time it, then check it with tracing off."""
    rnd = Round()
    start = time.perf_counter()
    next_reference = start
    for index, job in enumerate(workload.jobs):
        if time.perf_counter() >= next_reference:
            t_ref = time.perf_counter()
            rnd.reference.append(reference_seconds())
            next_reference = time.perf_counter() + REF_EVERY_S
            rnd.own_s += time.perf_counter() - t_ref
        error = None
        result = None
        if tracer is not None:
            tracer.enabled = True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = job.run()
        except Exception:  # a failed job is counted, the loop goes on
            error = traceback.format_exc()
        c1, t1 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        rnd.wall.append(t1 - t0)
        rnd.cpu.append(c1 - c0)
        try:
            if error is None:
                rnd.bytes_out += workloads_mod.bytes_out(result)
                for key, value in workloads_mod.verify_counts(result).items():
                    rnd.verify[key] = rnd.verify.get(key, 0) + value
                job.check(result)
        except workloads_mod.CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception:
            error = traceback.format_exc()
        if error is not None:
            rnd.failures.append(f"job {index} ({job.kind}): {error}")
        rnd.own_s += time.perf_counter() - t1
    rnd.elapsed = time.perf_counter() - start
    return rnd


def run_rounds(workload, workloads_mod, seconds: float) -> list[Round]:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, workloads_mod))
    return rounds


def fastest(rounds: list[Round], clock: str = "cpu") -> list[float]:
    """Each job's lowest time over the rounds, in CPU (``cpu``) or wall (``wall``) seconds.

    Other tenants of a shared machine only ever add time to a job, so the
    fastest of several rounds is the steadiest estimate of its own cost.
    """
    times = [getattr(r, clock) for r in rounds]
    return [min(t[j] for t in times) for j in range(len(times[0]))]


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of p90, p99, p99.9, ... with at least TAIL_SAMPLES samples beyond it."""
    best = None
    for pct in (90.0, 99.0, 99.9, 99.99, 99.999):
        if n * (100.0 - pct) / 100.0 >= TAIL_SAMPLES:
            best = pct
    return best


def latency_lines(label: str, samples: list[float], unit: str) -> list[tuple]:
    scale = {"us": 1e6, "ms": 1e3, "s": 1.0}[unit]
    values = sorted(x * scale for x in samples)
    lines = [(f"{label}_p50_{unit}", percentile(values, 50), unit, f"n={len(values)}")]
    tail = tail_percentile(len(values))
    if tail is not None:
        lines.append((f"{label}_p{tail:g}_{unit}", percentile(values, tail), unit,
                      f"n={len(values)}"))
    return lines


def kind_samples(workload, rounds: list[Round], kind: str) -> tuple[list[float], float]:
    """Wall latencies of the jobs of one kind, and the work they did."""
    idx = [j for j, job in enumerate(workload.jobs) if job.kind == kind]
    lat = [r.wall[j] for r in rounds for j in idx]
    work = sum(workload.jobs[j].work for j in idx) * len(rounds)
    return lat, work


# --------------------------------------------------------------------------
# environment


def git_sha() -> str:
    """Commit of the checkout, or ``unknown`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest() -> str:
    """SHA-256 of the package sources as they are on disk.

    Unlike the commit, it also identifies uncommitted changes and a checkout
    that is not a git repository.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "load_model": "closed loop, one client, one process, no worker threads"}


# --------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, workload, workloads_mod, setup: tuple[list[float], list[float]]):
    rounds = run_rounds(workload, workloads_mod, args.seconds)
    all_lat = sorted(x for r in rounds for x in r.wall)
    best = fastest(rounds)
    scale = speed_scale([r.reference for r in rounds])
    attempted = len(all_lat)
    failed = sum(len(r.failures) for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup[1]), "s"),
        "batch_cpu_s": (sum(best) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = [
        ("setup_s", *metrics["setup_s"], f"CPU, median of {len(setup[1])} fresh processes"),
        ("batch_cpu_s", *metrics["batch_cpu_s"],
         f"sum over jobs of the fastest of {len(rounds)} rounds"),
        ("speed_scale", scale, "ratio", f"{REF_NOMINAL_S} s / fastest round's calibration"),
        ("setup_wall_s", statistics.median(setup[0]), "s", "unscaled"),
        ("wall_s", sum(fastest(rounds, "wall")), "s", "unscaled, fastest wall time of each job"),
        ("peak_rss_mb", *metrics["peak_rss_mb"], ""),
        ("failed_frac", failed / attempted, "ratio", f"{failed}/{attempted} jobs"),
        *latency_lines("job", all_lat, "ms")[1:],
    ]
    for label, (kind, unit) in workload.latencies.items():
        report += latency_lines(label, kind_samples(workload, rounds, kind)[0], unit)
    for name, (kind, unit) in workload.rates.items():
        lat, work = kind_samples(workload, rounds, kind)
        report.append((name, work / sum(lat), unit, f"{len(lat)} jobs"))
    return metrics, report, rounds


def per_layer(args, workload, workloads_mod, tracer, kernels_mod):
    kernel = kernels_mod.run_kernel_cases(args.seed)
    # Untraced and traced rounds alternate, so that the machine's drift
    # reaches both sides of the tracing overhead alike.
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < TRACE_MAX_ROUNDS and (
            len(traced) < MIN_ROUNDS or time.perf_counter() - start < args.seconds):
        plain.append(run_round(workload, workloads_mod))
        tracer.install()
        try:
            traced.append(run_round(workload, workloads_mod, tracer))
        finally:
            tracer.uninstall()
    n = len(traced)
    funcs = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    modules: dict[str, float] = {}
    for name, entry in funcs.items():
        metrics[f"{name}.calls"] = (entry["calls"] / n, "count")
        metrics[f"{name}.self_s"] = (entry["self_s"] / n, "s")
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + entry["self_s"]
    for module, total in modules.items():
        metrics[f"{module}.self_s"] = (total / n, "s")
    for key in ("market.path_steps", "mc.obs", "replication.ledger_rows", "lattice.sum_terms"):
        metrics[key] = (tracer.counts.get(key, 0.0) / n, "count")
    metrics["cli.bytes_out"] = (sum(r.bytes_out for r in traced) / n, "B")
    rows = sum(r.verify.get("rows", 0) for r in traced)
    metrics["mc.checks_ok_ratio"] = (
        sum(r.verify.get("ok", 0) for r in traced) / rows if rows else 0.0, "ratio")
    elapsed = sum(r.elapsed for r in traced)
    spanned = sum(modules.values())
    own = sum(r.own_s for r in traced)  # checks and calibrations
    batch_plain, batch_traced = (
        sum(fastest(phase)) * speed_scale([r.reference for r in phase])
        for phase in (plain, traced))
    metrics.update({
        "bench.self_s": ((elapsed - spanned) / n, "s"),
        "trace.overhead_s": (batch_traced - batch_plain, "s"),
        "trace.overhead_frac": ((batch_traced - batch_plain) / batch_plain, "ratio"),
        "trace.unaccounted_frac": ((elapsed - spanned - own) / elapsed, "ratio"),
        "trace.spans": (tracer.span_count() / n, "count"),
    })
    metrics.update(kernel)
    idle = {f"{name}.{part}" for name, entry in funcs.items() if not entry["calls"]
            for part in ("calls", "self_s")}
    report = [(name, value, unit, "") for name, (value, unit) in metrics.items()
              if name not in idle]
    report.insert(0, ("batch_cpu_s.untraced", batch_plain, "s", f"{len(plain)} rounds"))
    report.insert(1, ("batch_cpu_s.traced", batch_traced, "s", f"{n} rounds"))
    sides = {key: sum(r.verify.get(key, 0) for r in traced) for key in ("plain", "partial")}
    if sum(sides.values()):
        report.append(("mc.levered_states", sum(sides.values()), "count",
                       f"estimator plain {sides['plain']}, partial {sides['partial']}, "
                       f"over {n} rounds"))
    return metrics, report, plain + traced


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                cwd=ROOT).returncode
                 for name in WORKLOADS]
        return max(codes)

    import_package()
    end_units, layer_units = declared_metrics()
    setup = measure_setup(args.workload, args.seed) if not args.trace else ([], [])

    import hindsight_options
    import kernels
    import tracer as tracer_mod
    import workloads

    tracer = tracer_mod.Tracer(hindsight_options) if args.trace else None
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, work_dir)
        if args.trace:
            metrics, report, rounds = per_layer(args, workload, workloads, tracer, kernels)
            declared = layer_units
        else:
            metrics, report, rounds = end_to_end(args, workload, workloads, setup)
            declared = end_units
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    mismatched = sorted(name for name, unit in declared.items()
                        if name not in metrics or metrics[name][1] != unit)
    if mismatched:
        sys.exit(f"error: metrics of BENCHMARK.json not computed with its unit: {mismatched}")
    attempted = sum(len(r.wall) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    env = environment(args.seed)

    print(f"# perfbench {args.workload} trace={args.trace} seconds={args.seconds:g}")
    for key, value in env.items():
        print(f"# {key}: {value}")
    for name, value, unit, note in report:
        print(f"{name:<48} {value:>16.6g} {unit:<6} {note}")
    for failure in failures[:5]:
        print(failure, file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.jsonl.gz"))
    stem.with_suffix(".json").write_text(json.dumps({
        "environment": env, "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "report": [dict(name=n, value=v, unit=u, note=note) for n, v, u, note in report],
        "setup_wall_s": setup[0],
        "setup_cpu_scaled_s": setup[1],
        "round_latencies_s": [r.wall for r in rounds],
        "round_cpu_s": [r.cpu for r in rounds],
        "calibrations_s": [r.reference for r in rounds],
    }, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for seqalloc: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload dp-large --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each workload runs in fresh
child processes started one at a time by this process and pinned with
it to one CPU, so a 2-core box is never oversubscribed.  This process
itself never imports seqalloc.

With ``--trace 0`` the end-to-end metrics are printed, times scaled to
the reference speed of speed.py; with ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.  The exit code is non-zero
when any op failed its output check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("dp-large", "crosscheck-small", "cli-pipeline")

# The tail is the highest percentile with at least ten samples beyond it
# at the default run length; fixed per workload so that runs compare.
TAIL_PERCENTILE = {"dp-large": 90, "crosscheck-small": 97, "cli-pipeline": 90}
SETUP_REPEATS = 7
SPEED_SAMPLES = 5  # calibration kernel runs before and after each set-up child
CHILD_REPEATS = 7  # interpreter / import probes of the traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "dp.calls": "count",
    "dp.states": "count",
    "dp.arcs": "count",
    "dp.build_ms": "ms",
    "dp.induce_ms": "ms",
    "dp.us_per_state": "us",
    "dp.bytes_per_state": "B",
    "dp.solve_self_ms": "ms",
    "achievability.subset_self_ms": "ms",
    "achievability.subsets_enumerated": "count",
    "achievability.is_achievable_calls": "count",
    "achievability.is_achievable_ms": "ms",
    "achievability.check_ratio": "ratio",
    "achievability.achievable_ratio": "ratio",
    "core.simulate_calls": "count",
    "core.simulate_ms": "ms",
    "core.profile_metrics_ms": "ms",
    "core.from_json_ms": "ms",
    "analysis.check_state_bounds_self_ms": "ms",
    "generators.gen_ms": "ms",
    "ilp.build_model_ms": "ms",
    "ilp.export_lp_ms": "ms",
    "ilp.lp_bytes": "B",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.absent_targets": "count",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float) -> tuple[dict, float, int]:
    """Run ``argv`` to completion and return its last stdout line as JSON,
    the monotonic time it was started at, and its peak RSS in KiB.

    The peak comes from the child's own rusage, which on Linux covers its
    waited-for descendants too, so runs of several workloads do not mix.
    """
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env())
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"error: child {' '.join(argv[2:5])} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), started, usage.ru_maxrss


def worker(mode: str, workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(CHILD), mode, "--workload", workload, "--seed", str(seed), *extra]


def median_child_ms(argv: list[str]) -> float:
    times = []
    for _ in range(CHILD_REPEATS):
        began = time.perf_counter()
        subprocess.run(argv, check=True, env=child_env(), stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - began) * 1000.0)
    return statistics.median(times)


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def timed_setup(argv: list[str], timeout: float) -> tuple[dict, float, int]:
    """run_child, plus the child's set-up time at reference speed."""
    speed = SpeedLog()
    for _ in range(SPEED_SAMPLES):
        speed.sample()
    doc, started, peak_kib = run_child(argv, timeout)
    for _ in range(SPEED_SAMPLES):
        speed.sample()
    return doc, (doc["ready"] - started) * speed.factor(started, doc["ready"]), peak_kib


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    doc, setup, peak_kib = timed_setup(worker("run", workload, seed, "--seconds", str(seconds)), seconds + 60.0)
    setups = [setup]
    for _ in range(SETUP_REPEATS):
        setups.append(timed_setup(worker("setup", workload, seed), 30.0)[1])
    latencies = doc["latencies"]
    pct = TAIL_PERCENTILE[workload]
    beyond = sum(1 for value in latencies if value > percentile(latencies, pct))
    print(
        f"{workload}: {len(latencies)} ops, tail = p{pct} with {beyond} samples beyond it, "
        f"fail_ratio = {len(doc['failures']) / len(latencies):.4f}, "
        f"raw p50 = {statistics.median(doc['raw_latencies']) * 1000.0:.6g} ms"
    )
    if beyond < 10:
        print(f"{workload}: warning: fewer than 10 samples beyond p{pct}; run longer", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_ms.p50": statistics.median(latencies) * 1000.0,
        "latency_ms.tail": percentile(latencies, pct) * 1000.0,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return values, len(latencies), doc["failures"]


def per_layer(workload: str, seed: int) -> tuple[dict, int, list[str]]:
    doc, _, _ = run_child(worker("trace", workload, seed), 120.0)
    values = dict(doc["metrics"])
    interpreter = median_child_ms([sys.executable, "-c", "pass"])
    values["cli.interpreter_ms"] = interpreter
    values["cli.import_ms"] = median_child_ms([sys.executable, "-c", "import seqalloc"]) - interpreter
    values["dp.bytes_per_state"] = 0.0
    if workload == "dp-large":
        _, _, base_kib = run_child(worker("rss", workload, seed), 30.0)
        solved, _, solved_kib = run_child(worker("rss", workload, seed, "--solve"), 30.0)
        values["dp.bytes_per_state"] = (solved_kib - base_kib) * 1024.0 / solved["states"]
    return values, doc["attempted"], doc["failures"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    # Compile the package's bytecode once, so no timed set-up pays for it.
    subprocess.run([sys.executable, "-c", "import seqalloc"], check=True, env=child_env())
    if trace:
        values, attempted, failures = per_layer(workload, seed)
        units = PER_LAYER_UNITS
    else:
        values, attempted, failures = end_to_end(workload, seed, seconds)
        units = END_TO_END_UNITS
    for line in failures[:20]:
        print(f"{workload}: FAILED {line}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{workload}: {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return not failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "seqalloc" / "__init__.py").is_file():
        print(f"error: no seqalloc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every child: the calibration kernel then
    # runs where the measured work runs, and sees the same contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark workload in one fresh process; started by run.py.

Modes:
  setup  import seqalloc, build the workload's inputs, report when ready
  run    setup, then a closed loop of checked ops for --seconds
  trace  setup, then a fixed op list untraced and again traced
  rss    import and generate the dp-large anchor, solving it with --solve

Every seqalloc call goes through a module attribute (``dp.solve_dp``),
never a name bound at import, so the tracer's wrappers see it.  Only
default-argument public APIs are called.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import seqalloc
from seqalloc import achievability, analysis, cli, core, dp, generators, ilp
from speed import SpeedLog
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1
CALIBRATE_EVERY_S = 0.1

if not Path(seqalloc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"error: seqalloc imported from {seqalloc.__file__}, not from {ROOT / 'src'}")


class CheckFailed(Exception):
    """An op's output disagrees with what it must be."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------- dp-large
# Op 0 is a fixed anchor, random (3, 160) with seed 4: 63,428 states, the
# largest instance of a run, so the run's peak RSS does not hang on which
# seeded instance happens to be biggest.  The pool is larger than a run
# needs, so the anchor runs exactly once.  Seeded shapes follow, cycling
# in this order; their state counts vary little between seeds (the
# correlated profiles cap them), and with five shapes the median and the
# p90 fall inside one shape's cluster, not on the edge between two.
DP_ANCHOR = ("random", 4, 3, 160, None)
DP_SHAPES = (
    ("correlated", 10, 200, 3),
    ("random", 3, 80, None),
    ("correlated", 6, 200, 4),
    ("correlated", 4, 200, 5),
    ("correlated", 3, 200, 10),
)
DP_POOL = 1 + 60 * len(DP_SHAPES)
DP_TRACED_OPS = 1 + 2 * len(DP_SHAPES)


def dp_instance(seed: int, index: int):
    """Instance ``index`` of the dp-large pool for ``seed``."""
    kind, instance_seed, n, m, range_max = DP_ANCHOR
    if index > 0:
        kind, n, m, range_max = DP_SHAPES[(index - 1) % len(DP_SHAPES)]
        instance_seed = random.Random(seed * DP_POOL + index).randrange(1 << 30)
    if kind == "random":
        return generators.gen_random(instance_seed, n, m)[0]
    return generators.gen_correlated(instance_seed, n, m, range_max)[0]


def dp_op(instance, expected: list[int] | None) -> None:
    result = dp.solve_dp(instance)
    replay = core.simulate(instance, result.ranking)
    check(replay.bundles[core.MANIPULATOR] == result.bundle, "ranking does not replay to the bundle")
    check(core.bundle_utility(instance, result.bundle) == result.optimal_utility, "bundle value != optimum")
    truthful = core.truthful_utility(instance)
    check(result.optimal_utility < 2 * truthful or result.optimal_utility == truthful == 0, "optimal >= 2 x truthful")
    if expected is not None:
        check([result.optimal_utility, result.stats["states"]] == expected, "differs from the reference")


def setup_dp_large(seed: int) -> list[Callable[[], None]]:
    reference = _reference("dp-large") if seed == DEFAULT_SEED else [None] * DP_POOL
    return [partial(dp_op, dp_instance(seed, index), reference[index]) for index in range(DP_POOL)]


# -------------------------------------------------------- crosscheck-small
# Shapes cycle through every m in 10..20 and n in 2..5 (44 combinations),
# so each seed gets the same mix of enumeration sizes and only the
# profiles differ; mu is the largest turn count keeping C(m, mu) under the
# cap, so one op enumerates 252 to 19,448 subsets.
CROSS_SHAPES = tuple((m, n) for m, n in zip(list(range(10, 21)) * 4, [2, 3, 4, 5] * 11))
CROSS_BLOCKS = 5
CROSS_SUBSET_CAP = 20_000
TRIANGLE = ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5))
FIVE_CYCLE = ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
SIGNATURE_WITH_CLIQUE = {"best": 3, "good": 3, "medium": 1, "worst": 0}
SIGNATURE_WITHOUT_CLIQUE = {"best": 3, "good": 3, "medium": 0, "worst": 1}
TIGHT_RATIO = Fraction(1997, 1000)
CROSS_TRACED_OPS = len(CROSS_SHAPES) + 3


def cross_random_instance(seed: int, index: int):
    m, n = CROSS_SHAPES[index % len(CROSS_SHAPES)]
    mu = max(k for k in range(1, m // 2 + 1) if math.comb(m, k) <= CROSS_SUBSET_CAP)
    instance_seed = random.Random(seed * 1_000 + index).randrange(1 << 30)
    return generators.gen_random(instance_seed, n, m, mu)[0]


def cross_op(instance, metadata=None, signature=None, ratio=None) -> None:
    by_dp = dp.solve_dp(instance)
    by_subset = achievability.solve_subset_enum(instance)
    check(by_dp.optimal_utility == by_subset.optimal_utility, "dp and subset disagree")
    check(achievability.is_achievable(instance, by_dp.bundle).achievable, "dp bundle not achievable")
    report = analysis.check_state_bounds(instance)
    check(report.u_optimal == by_dp.optimal_utility and report.bound_ok, "bound report disagrees")
    if signature is not None:
        check(generators.bundle_class_signature(metadata, by_subset.bundle) == signature, "gadget signature")
    if ratio is not None:
        check(Fraction(by_dp.optimal_utility, core.truthful_utility(instance)) == ratio, "tight-family ratio")


def setup_crosscheck_small(seed: int) -> list[Callable[[], None]]:
    fixed = []
    for edges, signature in ((TRIANGLE, SIGNATURE_WITH_CLIQUE), (FIVE_CYCLE, SIGNATURE_WITHOUT_CLIQUE)):
        instance, metadata = generators.gen_clique_reduction(generators.GraphInput(5, edges), 3)
        fixed.append(partial(cross_op, instance, metadata, signature))
    fixed.append(partial(cross_op, generators.gen_tight_family(1000)[0], ratio=TIGHT_RATIO))
    ops = []
    for block in range(CROSS_BLOCKS):
        first = block * len(CROSS_SHAPES)
        ops += [partial(cross_op, cross_random_instance(seed, i)) for i in range(first, first + len(CROSS_SHAPES))]
        ops += fixed
    return ops


# ------------------------------------------------------------ cli-pipeline
CLI_INSTANCES = 24
CLI_TRACED_INSTANCES = 4
CLI_COMMANDS = ("generate", "solve", "check", "simulate", "export-ilp")


@dataclass
class CliOp:
    argv: list[str]
    verify: Callable[[str], None]  # given the command's stdout (or --out file) text


def _json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _verify_generate(path: Path, expected: str, _stdout: str) -> None:
    check(path.read_text(encoding="utf-8") == expected, "generated instance differs from in-process")


def _verify_solve(optimal: int, stdout: str) -> None:
    check(_json(stdout)["optimal_utility"] == optimal, "solve value != in-process solve_dp")


def _verify_check(optimal: int, stdout: str) -> None:
    doc = _json(stdout)
    check(doc["u_optimal"] == optimal and doc["bound_ok"] is True, "check report disagrees")


def _verify_simulate(truthful: int, stdout: str) -> None:
    check(_json(stdout)["manipulator_utility"] == truthful, "simulate utility != truthful")


def _verify_export(stdout: str) -> None:
    check(ilp.export_lp(ilp.parse_lp(stdout)) == stdout, "LP text does not round-trip")


def cli_instance(seed: int, index: int):
    """Instance ``index`` of the cli-pipeline pool and the generate argv making it."""
    rng = random.Random(seed * 1_000 + index)
    m = rng.randint(8, 40)
    n = rng.randint(2, 4)
    instance_seed = rng.randrange(1 << 30)
    argv = ["generate", "--seed", str(instance_seed), "--agents", str(n), "--items", str(m)]
    if index % 2:
        return generators.gen_correlated(instance_seed, n, m, 3)[0], [*argv, "--type", "correlated", "--range-max", "3"]
    return generators.gen_random(instance_seed, n, m)[0], [*argv, "--type", "random"]


def setup_cli_pipeline(seed: int) -> list[CliOp]:
    WORK.mkdir(exist_ok=True)
    ops = []
    for index in range(CLI_INSTANCES):
        instance, generate_argv = cli_instance(seed, index)
        path = WORK / f"cli-{seed}-{index}.json"
        optimal = dp.solve_dp(instance).optimal_utility
        truthful = core.truthful_utility(instance)
        source = ["--in", str(path)]
        ops += [
            CliOp([*generate_argv, "--out", str(path)], partial(_verify_generate, path, instance.to_json())),
            CliOp(["solve", *source], partial(_verify_solve, optimal)),
            CliOp(["check", *source], partial(_verify_check, optimal)),
            CliOp(["simulate", *source], partial(_verify_simulate, truthful)),
            CliOp(["export-ilp", *source], _verify_export),
        ]
    return ops


def cli_subprocess_op(op: CliOp) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "seqalloc", *op.argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    check(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
    op.verify(proc.stdout)


def cli_inprocess_op(op: CliOp) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.argv)
    check(code == 0, f"exit code {code}")
    op.verify(out.getvalue())


# ------------------------------------------------------------------ common
SETUPS = {
    "dp-large": setup_dp_large,
    "crosscheck-small": setup_crosscheck_small,
    "cli-pipeline": setup_cli_pipeline,
}


def _reference(workload: str) -> list:
    doc = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return doc[workload]


def operations(workload: str, inputs: list, traced: bool) -> list[Callable[[], None]]:
    """The op list: the whole input pool, or its fixed traced prefix."""
    if workload == "cli-pipeline":
        if traced:
            return [partial(cli_inprocess_op, op) for op in inputs[: CLI_TRACED_INSTANCES * len(CLI_COMMANDS)]]
        return [partial(cli_subprocess_op, op) for op in inputs]
    if traced:
        return inputs[: DP_TRACED_OPS if workload == "dp-large" else CROSS_TRACED_OPS]
    return inputs


def run_ops(ops: list[Callable[[], None]], seconds: float | None, speed: SpeedLog | None = None) -> dict:
    """Closed loop with one caller: cycle ``ops`` for ``seconds``, or run each once.

    With a ``speed`` log the calibration kernel runs between ops, at
    most every CALIBRATE_EVERY_S, and never inside an op's interval.
    """
    intervals: list[tuple[float, float]] = []
    failures: list[str] = []
    start = time.monotonic()
    deadline = start + seconds if seconds is not None else None
    calibrated = -math.inf
    index = 0
    while True:
        if speed is not None and time.monotonic() - calibrated >= CALIBRATE_EVERY_S:
            speed.sample()
            calibrated = time.monotonic()
        op = ops[index % len(ops)]
        began = time.monotonic()
        try:
            op()
        except Exception as exc:  # a failed op is counted, never dropped
            failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        done = time.monotonic()
        intervals.append((began, done))
        index += 1
        if (deadline is None and index == len(ops)) or (deadline is not None and done >= deadline):
            break
    if speed is not None:
        speed.sample()
    return {"intervals": intervals, "failures": failures, "wall": time.monotonic() - start}


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run", "trace", "rss"])
    parser.add_argument("--workload", choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--solve", action="store_true", help="rss mode: also solve the instance")
    args = parser.parse_args()

    if args.mode == "rss":
        instance = dp_instance(args.seed, 0)  # the anchor, the largest dp-large instance
        states = dp.solve_dp(instance).stats["states"] if args.solve else 0
        _emit({"states": states})
        return 0

    setup_tracer = Tracer()
    if args.mode == "trace":
        setup_tracer.install()
    inputs = SETUPS[args.workload](args.seed)
    ready = time.monotonic()  # system-wide clock: run.py took the start time
    setup_tracer.uninstall()
    if args.mode == "setup":
        _emit({"ready": ready})
        return 0

    if args.mode == "run":
        speed = SpeedLog()
        outcome = run_ops(operations(args.workload, inputs, traced=False), args.seconds, speed)
        raw = [done - began for began, done in outcome["intervals"]]
        scaled = [(done - began) * speed.factor(began, done) for began, done in outcome["intervals"]]
        _emit({"ready": ready, "raw_latencies": raw, "latencies": scaled, "failures": outcome["failures"]})
        return 0

    ops = operations(args.workload, inputs, traced=True)
    warm = run_ops(ops, None)  # the first pass also grows the heap
    untraced = run_ops(ops, None)
    tracer = Tracer()
    tracer.install()
    traced = run_ops(ops, None)
    tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    metrics["generators.gen_ms"] = layer_metrics(setup_tracer.spans)["generators.gen_ms"]
    metrics["trace.overhead_ratio"] = traced["wall"] / untraced["wall"]
    metrics["trace.absent_targets"] = len(tracer.absent)
    for name in tracer.absent:
        print(f"trace: {name} no longer exists; recorded as absent", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    spans = {"setup": setup_tracer.to_json_dict(), "ops": tracer.to_json_dict()}
    (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    _emit(
        {
            "ready": ready,
            "attempted": 3 * len(ops),
            "failures": warm["failures"] + untraced["failures"] + traced["failures"],
            "metrics": metrics,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

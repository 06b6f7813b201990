"""Tests of the benchmark itself.

    python -m pytest perfbench

They start the benchmark as a user would, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
EXACT_COUNTS = (
    "dp.states",
    "dp.arcs",
    "achievability.subsets_enumerated",
    "achievability.is_achievable_calls",
    "core.simulate_calls",
    "ilp.lp_bytes",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics_match(doc: dict, declared: list[dict]) -> None:
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in doc["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    doc = result_line(bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0"))
    assert_metrics_match(doc, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_line(bench("--workload", workload, "--seed", "3", "--trace", "1")) for _ in range(2))
    assert_metrics_match(first, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.absent_targets"]["value"] == 0


INSTANCE_DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[2])
import child
seed = int(sys.argv[1])
texts = [child.dp_instance(seed, i).to_json() for i in range(child.DP_POOL)]
texts += [child.cross_random_instance(seed, i).to_json() for i in range(child.CROSS_BLOCKS * len(child.CROSS_SHAPES))]
texts += [child.cli_instance(seed, i)[0].to_json() for i in range(child.CLI_INSTANCES)]
print(hashlib.sha256("".join(texts).encode()).hexdigest())
"""


def instance_digest(seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", INSTANCE_DIGEST, str(seed), str(HERE)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


def test_same_seed_gives_byte_identical_instances():
    # Separate processes, so hash randomization cannot hide an order dependence.
    assert instance_digest(7) == instance_digest(7)
    assert instance_digest(7) != instance_digest(8)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_records_missing_targets_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing

    monkeypatch.setattr(
        tracing,
        "TARGETS",
        (("seqalloc.dp", "solve_naive_removed", "dp.gone"), ("seqalloc.core", "simulate", "core.simulate")),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import seqalloc
        from seqalloc import core

        instance, _ = seqalloc.gen_random(1, 3, 6)
        core.simulate(instance)
        seqalloc.truthful_utility(instance)  # calls simulate through core's globals
    finally:
        tracer.uninstall()
    assert tracer.absent == ["seqalloc.dp.solve_naive_removed"]
    assert [span.name for span in tracer.spans] == ["core.simulate", "core.simulate"]
    assert core.simulate is not None and not hasattr(core.simulate, "__wrapped__")


def test_benchmark_json_lists_the_code_metrics():
    sys.path.insert(0, str(HERE))
    try:
        import run
    finally:
        sys.path.remove(str(HERE))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert WORKLOADS == list(run.WORKLOADS)

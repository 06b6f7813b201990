"""End-to-end gate: nine checks that the package does what it promises.

Each test prints one ``[acceptance] <name>: PASS`` line on success, so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  The
checks favour exact comparisons: frozen values, exact rationals, and
set equality; wall-clock ceilings appear only where a check would be
meaningless if it took forever.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

from conftest import milp_solve, seeded_instances, seeded_targets
from seqalloc import (
    GraphInput,
    SweepConfig,
    bench_sweep,
    build_model,
    build_state_graph,
    bundle_class_signature,
    export_lp,
    gen_clique_reduction,
    gen_correlated,
    gen_mcc_reduction,
    gen_random,
    gen_tight_family,
    is_achievable,
    sidon_table,
    simulate,
    solve_bruteforce_rankings,
    solve_dp,
    solve_subset_enum,
    state_set_bounds,
    truthful_utility,
)
from state_checks import taken_sets, verify_state_invariants

TRIANGLE_GRAPH = GraphInput(5, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
FIVE_CYCLE = GraphInput(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
COLORED_GRAPH = GraphInput(4, ((1, 3), (1, 4), (2, 3)), coloring=(1, 1, 2, 2))


def _passed(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def run_cli(*args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "seqalloc", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        check=True,
    )


def test_running_example_end_to_end(running_example):
    started = time.perf_counter()
    truthful = simulate(running_example)
    assert truthful.bundles == (frozenset({0, 3}), frozenset({2}), frozenset({1}))
    assert truthful_utility(running_example) == 6
    result = solve_dp(running_example)
    assert result.optimal_utility == 7
    assert result.bundle == {1, 2}
    assert result.ranking.index(2) < result.ranking.index(1)
    assert time.perf_counter() - started < 1.0
    _passed("running-example")


def test_state_graph_exact_sets(running_example):
    expected = {
        frozenset(),
        frozenset({2}),
        frozenset({0, 2}),
        frozenset({2, 3}),
        frozenset({0, 1, 2}),
        frozenset({0, 2, 3}),
    }
    graph = build_state_graph(running_example)
    assert graph.num_states == 12
    assert graph.distinct_sets == 6
    assert taken_sets(graph) == expected
    _passed("state-graph")


def test_exact_solvers_agree():
    started = time.perf_counter()
    checked = 0
    for instance in seeded_instances(200):
        reference = solve_dp(instance).optimal_utility
        assert solve_subset_enum(instance).optimal_utility == reference
        assert solve_bruteforce_rankings(instance).optimal_utility == reference
        assert milp_solve(export_lp(build_model(instance))).value == reference
        checked += 1
    assert checked == 200
    assert time.perf_counter() - started < 120.0
    _passed("solver-agreement")


def test_achievability_matches_oracle():
    """Greedy verdicts against a MILP solve of the model with the target required."""
    pairs = 0
    for index, instance in enumerate(seeded_instances(125, items=(5, 6, 7, 8))):
        lp_text = export_lp(build_model(instance))
        for size in (1, 2, 3, 5):
            target = seeded_targets(instance, size, tag=f"gate-{index}-{size}")
            greedy = is_achievable(instance, target)
            oracle = milp_solve(lp_text, secure=[item + 1 for item in target])
            assert greedy.achievable == (oracle is not None), (index, sorted(target))
            if greedy.achievable:
                assert target <= simulate(instance, greedy.ranking).bundles[0]
            pairs += 1
    assert pairs == 500
    _passed("achievability")


def test_gain_ratio_below_two():
    def assert_ratio(instance):
        optimal = solve_dp(instance).optimal_utility
        base = truthful_utility(instance)
        if base > 0:
            assert Fraction(optimal, base) < 2

    for instance in seeded_instances(200):
        assert_ratio(instance)
    grid = itertools.cycle((n, m) for n in (2, 3, 4, 5) for m in (4, 5, 6, 7, 8, 9, 10))
    for index in range(500):
        n, m = next(grid)
        instance, _ = gen_random(50_000 + index, n, m)
        assert_ratio(instance)
    tight, _ = gen_tight_family(1000)
    ratio = Fraction(solve_dp(tight).optimal_utility, truthful_utility(tight))
    assert ratio == Fraction(1997, 1000)
    _passed("gain-ratio")


def test_state_counts_and_invariants():
    instances = list(seeded_instances(200))
    for seed in range(1, 6):
        instances.append(gen_correlated(seed, 5, 20, 3)[0])
    for instance in instances:
        graph = build_state_graph(instance)
        for name, cap in state_set_bounds(instance).items():
            if cap is not None:
                assert graph.distinct_sets <= cap, (name, cap, graph.distinct_sets)
        checked = verify_state_invariants(instance, graph)
        assert checked == graph.num_states
    _passed("state-bounds")


def test_clique_signature_decides():
    started = time.perf_counter()
    with_triangle, meta_yes = gen_clique_reduction(TRIANGLE_GRAPH, 3)
    bundle = solve_subset_enum(with_triangle).bundle
    assert bundle_class_signature(meta_yes, bundle) == {
        "best": 3,
        "good": 3,
        "medium": 1,
        "worst": 0,
    }
    triangle_free, meta_no = gen_clique_reduction(FIVE_CYCLE, 3)
    bundle = solve_subset_enum(triangle_free).bundle
    assert bundle_class_signature(meta_no, bundle) == {
        "best": 3,
        "good": 3,
        "medium": 0,
        "worst": 1,
    }
    assert time.perf_counter() - started < 300.0
    _passed("clique-signature")


def test_mcc_structure():
    instance, metadata = gen_mcc_reduction(COLORED_GRAPH, 2)
    assert instance.num_agents == 8

    idn = metadata["sidon_ids"][-1]
    sizes = {name: end - start for name, (start, end) in metadata["blocks"].items()}
    assert sizes == {
        "B1": 3 * idn,
        "B2": 3 * idn,
        "Idc1": idn + 2,
        "Idc2": idn + 2,
        "Idbar1": idn + 2,
        "Idbar2": idn + 2,
        "Idp1_2": 2 * idn + 2,
        "D": 6 * idn,
        "Z": 12 * idn,
    }

    ids = sidon_table(4).id_values
    sums = {a + b for a, b in itertools.combinations_with_replacement(ids, 2)}
    assert len(sums) == 10

    frame = metadata["proof_frame_utilities"]
    for name, boundaries in metadata["tau_boundaries"].items():
        start, _ = metadata["blocks"][name]
        for boundary in boundaries:
            assert sum(frame[start : start + boundary]) == 0

    allocation = simulate(instance)
    spans = {name: set(range(start, end)) for name, (start, end) in metadata["blocks"].items()}
    for agent_name, block_names in metadata["agent_blocks"].items():
        agent = instance.agents.index(agent_name)
        allowed = set().union(*(spans[name] for name in block_names))
        assert allocation.bundles[agent] <= allowed, agent_name
    _passed("mcc-structure")


def test_deterministic_outputs(running_example):
    example_json = running_example.to_json()

    generate_args = ("generate", "--type", "random", "--seed", "9", "--agents", "3", "--items", "7")
    generated = run_cli(*generate_args).stdout
    assert run_cli(*generate_args).stdout == generated

    solved = run_cli("solve", stdin_text=generated).stdout
    assert run_cli("solve", stdin_text=generated).stdout == solved

    exported = run_cli("export-ilp", stdin_text=example_json).stdout
    assert run_cli("export-ilp", stdin_text=example_json).stdout == exported

    config_text = json.dumps({"agents": [2, 3], "items": [4, 5], "seeds": [1, 2]})
    swept = run_cli("bench", "--config", "-", stdin_text=config_text).stdout
    assert run_cli("bench", "--config", "-", stdin_text=config_text).stdout == swept

    instance, _ = gen_random(17, 4, 8)
    assert solve_dp(instance).to_json() == solve_dp(instance).to_json()

    config = SweepConfig(agents=(2, 3), items=(4, 5, 6), seeds=(1, 2), algorithms=("dp", "subset"))
    assert bench_sweep(config) == bench_sweep(config)
    _passed("determinism")

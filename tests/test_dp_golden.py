"""Frozen DP outputs: the regression guard for the state-graph solver.

For a fixed list of instances this pins the optimal value, the ranking
and the bundle, the three counts (states, distinct taken sets, arcs)
and a SHA-256 digest of the sorted reachable taken sets.  The instances
are seeded random ones with one to five agents and up to 14 items, a
60-item random instance with five agents (9,636 states), two correlated
instances, the tight family and both clique gadgets.  The expected file
was recorded from the solver before its state graph was rewritten, so a
change of value, tie-break, state count or reachable sets shows up
here.  Set ids are not pinned: renumbering the sets leaves this file
passing.  Their order is guarded by
``test_dp::test_order_is_topological*``.

To re-record after an intended change of output::

    PYTHONPATH=src python tests/test_dp_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from seqalloc import (
    GraphInput,
    build_state_graph,
    gen_clique_reduction,
    gen_correlated,
    gen_random,
    gen_tight_family,
    solve_dp,
)
from state_checks import taken_sets

GOLDEN_PATH = Path(__file__).with_name("dp_golden.json")

TRIANGLE_GRAPH = GraphInput(5, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
FIVE_CYCLE = GraphInput(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))


def golden_cases() -> dict:
    """Case name -> instance, in a fixed order."""
    cases = {}
    for n in range(1, 6):
        for m in (1, 3, 6, 9, 12, 14):
            cases[f"random-{n}-{m}"] = gen_random(100 * n + m, n, m)[0]
    cases["random-5-60"] = gen_random(1, 5, 60)[0]
    cases["correlated-4-60-3"] = gen_correlated(1, 4, 60, 3)[0]
    cases["correlated-5-40-2"] = gen_correlated(2, 5, 40, 2)[0]
    cases["tight-1000"] = gen_tight_family(1000)[0]
    cases["clique-triangle"] = gen_clique_reduction(TRIANGLE_GRAPH, 3)[0]
    cases["clique-five-cycle"] = gen_clique_reduction(FIVE_CYCLE, 3)[0]
    return cases


def snapshot(instance) -> dict:
    """Everything the solver reports, plus a digest of the reachable sets."""
    graph = build_state_graph(instance)
    sets = sorted(sorted(taken) for taken in taken_sets(graph))
    return {
        "result": json.loads(solve_dp(instance).to_json()),
        "graph": [graph.num_states, graph.distinct_sets, graph.num_arcs],
        "taken_sets_sha256": hashlib.sha256(json.dumps(sets).encode()).hexdigest(),
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
CASES = golden_cases()


def test_golden_covers_every_case():
    assert list(GOLDEN) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_dp_matches_golden(name):
    assert snapshot(CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    lines = [f" {json.dumps(name)}: {json.dumps(snapshot(instance))}" for name, instance in CASES.items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")

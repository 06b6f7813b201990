"""The DP against an exact greedy oracle under lexicographic utilities.

Give the item at position p of the manipulator's ranking the utility
2**(m-1-p), so that each item is worth more than all items below it
together.  The optimum is then the lexicographically best securable
bundle, and a greedy finds it: walk her ranking and keep each item whose
addition ``is_achievable`` still accepts.  This is exact because the
securable sets are closed under subsets (Bouveret and Lang, ECAI 2014,
the lexicographic case).  Distinct bundles have distinct values, so the
optimal bundle is unique and the DP's bundle must equal the kept set,
which pins ranking recovery as well as the value.  The oracle shares no
code with the state graph, so it reaches the 80-200 item instances that
the MILP oracle cannot.

Instances reject utilities that sum past 2**63 - 1, so above 62 items the
DP's three layers run directly on Python-int utilities: the state graph
does not depend on the utilities at all.
"""

import json

import pytest

from seqalloc import (
    Instance,
    build_state_graph,
    cli,
    gen_correlated,
    gen_random,
    is_achievable,
    simulate,
    solve_dp,
)
from seqalloc.core import MANIPULATOR
from seqalloc.dp import _recover_ranking, backward_induction
from test_dp_golden import golden_cases

GOLDEN_CASES = golden_cases()

# The dp-large benchmark shapes: (kind, agents, items, range target).
DP_LARGE_SHAPES = (
    ("correlated", 10, 200, 3),
    ("random", 3, 80, None),
    ("correlated", 6, 200, 4),
    ("correlated", 4, 200, 5),
    ("correlated", 3, 200, 10),
)


def dp_large_cases() -> dict:
    """The dp-large anchor plus every shape at two fixed seeds."""
    cases = {"anchor-random-3-160": gen_random(4, 3, 160)[0]}
    for seed in (1, 2):
        for kind, n, m, target in DP_LARGE_SHAPES:
            if kind == "random":
                cases[f"random-{n}-{m}-seed{seed}"] = gen_random(seed, n, m)[0]
            else:
                cases[f"correlated-{n}-{m}-{target}-seed{seed}"] = gen_correlated(seed, n, m, target)[0]
    return cases


DP_LARGE_CASES = dp_large_cases()


def lexicographic_utilities(instance: Instance) -> tuple[int, ...]:
    m = instance.num_items
    utilities = [0] * m
    for pos, item in enumerate(instance.profile[MANIPULATOR]):
        utilities[item] = 1 << (m - 1 - pos)
    return tuple(utilities)


def with_utilities(instance: Instance, utilities) -> Instance:
    return Instance(instance.items, instance.agents, instance.sequence, instance.profile, utilities)


def greedy_bundle(instance: Instance) -> frozenset[int]:
    """Keep each item, best first, whose addition is still securable."""
    kept: list[int] = []
    for item in instance.profile[MANIPULATOR]:
        if is_achievable(instance, [*kept, item]).achievable:
            kept.append(item)
    return frozenset(kept)


def dp_optimum(instance: Instance, utilities: tuple[int, ...]) -> tuple[int, frozenset[int]]:
    """The DP's value and bundle under ``utilities``, at any item count."""
    if instance.num_items <= 62:
        result = solve_dp(with_utilities(instance, utilities))
        return result.optimal_utility, result.bundle
    graph = build_state_graph(instance)
    value, claims = backward_induction(graph, utilities)
    ranking, bundle = _recover_ranking(graph, claims, instance)
    assert simulate(instance, ranking).bundles[MANIPULATOR] == bundle
    return value, bundle


def assert_dp_matches_greedy(instance: Instance) -> tuple[int, frozenset[int]]:
    utilities = lexicographic_utilities(instance)
    expected = greedy_bundle(instance)
    value, bundle = dp_optimum(instance, utilities)
    assert bundle == expected
    assert value == sum(utilities[item] for item in expected)
    return value, bundle


@pytest.mark.parametrize("name", DP_LARGE_CASES)
def test_dp_large_matches_lexicographic_greedy(name):
    instance = DP_LARGE_CASES[name]
    value, _ = assert_dp_matches_greedy(instance)
    # Manipulation pays on every one of these, so the check is not vacuous.
    truthful = simulate(instance).bundles[MANIPULATOR]
    assert value > sum(lexicographic_utilities(instance)[item] for item in truthful)


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_cases_match_lexicographic_greedy(name):
    assert_dp_matches_greedy(GOLDEN_CASES[name])


@pytest.mark.parametrize("name", [name for name, case in GOLDEN_CASES.items() if case.num_items <= 62])
def test_cli_solve_matches_lexicographic_greedy(name, tmp_path, capsys):
    instance = GOLDEN_CASES[name]
    utilities = lexicographic_utilities(instance)
    path = tmp_path / "instance.json"
    path.write_text(with_utilities(instance, utilities).to_json())
    assert cli.main(["solve", "--algo", "dp", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = greedy_bundle(instance)
    assert doc["bundle"] == sorted(expected)
    assert doc["optimal_utility"] == sum(utilities[item] for item in expected)

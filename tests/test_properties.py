"""Randomized invariants over small instances.

Everything here must hold for every instance the strategy can draw; a
failure is a bug in the implementation, never in the test data.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import milp_solve
from seqalloc import (
    build_model,
    build_state_graph,
    export_lp,
    is_achievable,
    parse_lp,
    profile_metrics,
    simulate,
    solve_bruteforce_rankings,
    solve_dp,
    truthful_utility,
)
from state_checks import verify_state_invariants


@st.composite
def instances(draw, max_agents=4, max_items=6):
    from seqalloc import Instance

    m = draw(st.integers(1, max_items))
    n = draw(st.integers(1, max_agents))
    profile = [draw(st.permutations(range(m))) for _ in range(n)]
    if n == 1:
        sequence = [0] * m
    else:
        sequence = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    values = sorted(draw(st.lists(st.integers(0, 40), unique=True, min_size=m, max_size=m)), reverse=True)
    utilities = [0] * m
    for pos, item in enumerate(profile[0]):
        utilities[item] = values[pos]
    return Instance(
        items=[f"i{j}" for j in range(1, m + 1)],
        agents=[f"a{j}" for j in range(1, n + 1)],
        sequence=sequence,
        profile=profile,
        utilities=utilities,
    )


@st.composite
def instance_with_target(draw):
    instance = draw(instances())
    size = draw(st.integers(0, instance.num_items))
    target = draw(st.sets(st.sampled_from(range(instance.num_items)), min_size=size, max_size=size))
    return instance, target


@st.composite
def instance_with_ranking(draw):
    instance = draw(instances())
    ranking = draw(st.permutations(range(instance.num_items)))
    return instance, ranking


@given(instance_with_ranking())
@settings(deadline=None)
def test_simulation_partitions_items(pair):
    instance, ranking = pair
    allocation = simulate(instance, ranking)
    union = set()
    for agent, bundle in enumerate(allocation.bundles):
        assert not union & bundle
        union |= bundle
        assert len(bundle) == sum(1 for turn in instance.sequence if turn == agent)
    assert union == set(range(instance.num_items))


@given(instances(max_items=5))
@settings(deadline=None, max_examples=60)
def test_dp_matches_exhaustive_ranking_search(instance):
    assert solve_dp(instance).optimal_utility == solve_bruteforce_rankings(instance).optimal_utility


@given(instances())
@settings(deadline=None, max_examples=60)
def test_naive_model_search_matches_dp(instance):
    """The exported model, solved by an independent MILP solver, has the DP's optimum."""
    assert milp_solve(export_lp(build_model(instance))).value == solve_dp(instance).optimal_utility


@given(instance_with_target())
@settings(deadline=None)
def test_greedy_achievability_matches_oracle(pair):
    """The greedy verdict equals the MILP's: is the model with the target required feasible?"""
    instance, target = pair
    oracle = milp_solve(export_lp(build_model(instance)), secure=[item + 1 for item in target])
    assert is_achievable(instance, target).achievable == (oracle is not None)


@given(instance_with_target())
@settings(deadline=None)
def test_achievability_certificates_replay(pair):
    instance, target = pair
    certificate = is_achievable(instance, target)
    if certificate.achievable:
        assert target <= simulate(instance, certificate.ranking).bundles[0]


@given(instances())
@settings(deadline=None, max_examples=60)
def test_stored_states_satisfy_invariants(instance):
    graph = build_state_graph(instance)
    checked = verify_state_invariants(instance, graph)
    assert checked == (graph.num_states if instance.num_agents > 1 else 0)


@given(instances())
@settings(deadline=None, max_examples=60)
def test_manipulation_gain_stays_under_two(instance):
    optimal = solve_dp(instance).optimal_utility
    base = truthful_utility(instance)
    assert optimal >= base
    if base > 0:
        assert Fraction(optimal, base) < 2


@given(instances())
@settings(deadline=None, max_examples=60)
def test_lp_text_round_trips(instance):
    model = build_model(instance)
    text = export_lp(model)
    assert export_lp(parse_lp(text)) == text
    if model.manipulator_steps:
        assert parse_lp(text) == model


@given(instances())
@settings(deadline=None, max_examples=60)
def test_distinct_sets_respect_every_bound(instance):
    result = solve_dp(instance)
    metrics = profile_metrics(instance)
    distinct = result.stats["distinct_sets"]
    for name in ("bound_m_pow", "bound_mu", "bound_rg_n", "bound_rg"):
        cap = result.stats[name]
        if cap is not None:
            assert distinct <= cap, (name, distinct, cap, metrics)

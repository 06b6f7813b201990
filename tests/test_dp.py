import pytest
from hypothesis import given, settings

from conftest import seeded_instances
from seqalloc import (
    Instance,
    ResourceLimitError,
    build_state_graph,
    simulate,
    solve_bruteforce_rankings,
    solve_dp,
    state_set_bounds,
    truthful_utility,
)
from state_checks import (
    assert_matches_oracle,
    assert_set_layer,
    assert_set_order,
    cursors,
    states,
    taken_sets,
)
from test_dp_golden import golden_cases
from test_properties import instances

GOLDEN_CASES = golden_cases()


@pytest.mark.parametrize("representation", ["item", "agent"])
def test_state_graph_regression(running_example, representation):
    """The worked example reaches 12 states over 6 distinct taken sets.

    Each state is keyed by (banked, taken set) or, in the agent view, by
    (banked, cursors), with every non-manipulator's cursor recomputed
    from the mask.  Under either view the 12 states carry 12 distinct
    keys: keying by the cursor vector merges no states that the taken
    sets tell apart.
    """
    graph = build_state_graph(running_example)
    banked, set_ids = zip(*states(graph))
    masks = [graph.taken[sid] for sid in set_ids]
    if representation == "agent":
        masks = [cursors(running_example, mask) for mask in masks]
    keys = list(zip(banked, masks))
    assert len(set(keys)) == len(keys) == 12
    assert graph.num_states == 12
    assert graph.distinct_sets == 6
    assert graph.num_arcs == 11
    assert taken_sets(graph) == {
        frozenset(),
        frozenset({2}),
        frozenset({0, 2}),
        frozenset({2, 3}),
        frozenset({0, 1, 2}),
        frozenset({0, 2, 3}),
    }


def test_solve_optimal_value_and_report(running_example):
    result = solve_dp(running_example)
    assert result.optimal_utility == 7
    assert result.bundle == {1, 2}
    assert result.ranking == (2, 1, 0, 3)
    assert result.stats["states"] == 12
    assert result.stats["distinct_sets"] == 6
    assert result.stats["arcs"] == 11


def test_solve_steep_utilities(running_example_steep):
    """With utilities (1000, 999, 998, 0) the same report earns 1997."""
    result = solve_dp(running_example_steep)
    assert result.optimal_utility == 1997
    assert result.bundle == {1, 2}


def test_recovered_ranking_replays(running_example):
    result = solve_dp(running_example)
    replay = simulate(running_example, result.ranking)
    assert replay.bundles[0] == result.bundle


def test_single_agent_chain():
    """Alone, the graph is one slot chain and she takes everything."""
    instance = Instance(
        items=["a", "b", "c"],
        agents=["solo"],
        sequence=[0, 0, 0],
        profile=[[0, 1, 2]],
        utilities=[3, 2, 1],
    )
    graph = build_state_graph(instance)
    assert graph.num_states == 4
    assert graph.distinct_sets == 1
    assert graph.banked == [0b1111]
    assert states(graph) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    result = solve_dp(instance)
    assert result.optimal_utility == 6
    assert result.ranking == (0, 1, 2)


def test_manipulator_without_turns():
    """No turns, no loot; the truthful ranking is returned."""
    instance = Instance(
        items=["a", "b"],
        agents=["muted", "greedy"],
        sequence=[1, 1],
        profile=[[0, 1], [1, 0]],
        utilities=[2, 1],
    )
    result = solve_dp(instance)
    assert result.optimal_utility == 0
    assert result.bundle == frozenset()
    assert result.ranking == (0, 1)


def test_stats_carry_state_bounds(running_example):
    stats = solve_dp(running_example).stats
    assert stats["bound_m_pow"] == 16
    assert stats["bound_mu"] == 36
    assert stats["bound_rg_n"] == 24
    assert stats["bound_rg"] == 256


def test_state_set_bounds_applicability(running_example):
    """rg needs a second agent and rg_n a third; the instance fixes m, n, mu and rg."""
    alone = Instance(
        items=["i1", "i2", "i3", "i4", "i5"],
        agents=["a1"],
        sequence=[0] * 5,
        profile=[[0, 1, 2, 3, 4]],
        utilities=[5, 4, 3, 2, 1],
    )
    assert state_set_bounds(alone) == {"m_pow": 1, "mu": 5, "rg_n": None, "rg": None}
    # One other agent: every item spans one position, so rg is 1.
    pair = Instance(
        items=["i1", "i2", "i3", "i4"],
        agents=["a1", "a2"],
        sequence=[1, 0, 1, 1],
        profile=[[0, 1, 2, 3], [3, 1, 0, 2]],
        utilities=[4, 3, 2, 1],
    )
    assert state_set_bounds(pair) == {"m_pow": 4, "mu": 8, "rg_n": None, "rg": 16}
    # m 4, n 3, mu 2, rg 3.
    assert state_set_bounds(running_example) == {"m_pow": 16, "mu": 36, "rg_n": 4 * 6, "rg": 256}


def test_matches_brute_force_on_random_instances():
    for instance in seeded_instances(40, items=(4, 5, 6)):
        assert solve_dp(instance).optimal_utility == solve_bruteforce_rankings(instance).optimal_utility


def test_never_worse_than_truthful_never_twice(running_example):
    for instance in seeded_instances(40):
        value = solve_dp(instance).optimal_utility
        truthful = truthful_utility(instance)
        assert value >= truthful
        if truthful > 0:
            assert value < 2 * truthful


def test_claim_wins_ties():
    """A claim that ties the pick is taken, which fixes the recovered ranking.

    Here a claim and a pick tie on the optimal path; letting the pick win
    ties gives the same value but the ranking (2, 5, 4, 0, 3, 1, 6) and
    another bundle.
    """
    instance = Instance(
        items=[f"i{item}" for item in range(7)],
        agents=["a1", "a2", "a3"],
        sequence=[0, 0, 2, 1, 0, 0, 0],
        profile=[[4, 1, 2, 5, 0, 6, 3], [2, 5, 1, 6, 0, 4, 3], [1, 0, 4, 3, 6, 2, 5]],
        utilities=[7, 10, 9, 2, 14, 8, 5],
    )
    result = solve_dp(instance)
    assert result.optimal_utility == 40
    assert result.ranking == (1, 2, 4, 6, 3, 5, 0)
    assert result.bundle == {1, 2, 3, 4, 6}


@pytest.mark.parametrize("case", ["running", "golden"])
def test_max_states_is_inclusive(running_example, case):
    """A graph of exactly max_states states builds; one state fewer raises."""
    instance = running_example if case == "running" else max(GOLDEN_CASES.values(), key=lambda i: i.num_items)
    count = build_state_graph(instance).num_states
    assert build_state_graph(instance, max_states=count).num_states == count
    with pytest.raises(ResourceLimitError):
        build_state_graph(instance, max_states=count - 1)


def test_max_states_guard(running_example):
    """The cap trips at the set that passes it, naming the bound known up front.

    The empty set and the first set of size 1 hold 2 states each; the
    least proven cap is m**(n-1) = 16 sets, so at most 17 * 3 states.
    """
    with pytest.raises(
        ResourceLimitError,
        match=r"max_states=3 at set size 1 of 4 \(4 states counted; the proven caps allow at most 51\)$",
    ):
        build_state_graph(running_example, max_states=3)


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_order_is_topological_on_golden_instances(case):
    assert_set_order(build_state_graph(GOLDEN_CASES[case]))


@settings(max_examples=150, deadline=None)
@given(instances(max_agents=4, max_items=8))
def test_order_is_topological(instance):
    assert_set_order(build_state_graph(instance))


@pytest.mark.parametrize("case", [name for name, case in GOLDEN_CASES.items() if case.num_items <= 14])
def test_graph_matches_state_oracle_on_golden_instances(case):
    assert_matches_oracle(build_state_graph(GOLDEN_CASES[case]), GOLDEN_CASES[case])


@settings(max_examples=150, deadline=None)
@given(instances(max_agents=4, max_items=8))
def test_graph_matches_state_oracle(instance):
    assert_matches_oracle(build_state_graph(instance), instance)


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_set_layer_is_exact_on_golden_instances(case):
    assert_set_layer(build_state_graph(GOLDEN_CASES[case]), GOLDEN_CASES[case])


@settings(max_examples=150, deadline=None)
@given(instances(max_agents=4, max_items=8))
def test_set_layer_is_exact(instance):
    assert_set_layer(build_state_graph(instance), instance)

import itertools
import math

import pytest

from conftest import seeded_instances, seeded_targets
from seqalloc import (
    Instance,
    ResourceLimitError,
    gen_correlated,
    gen_random,
    is_achievable,
    is_achievable_oracle,
    simulate,
    solve_bruteforce_rankings,
    solve_dp,
    solve_subset_enum,
)


def test_reachable_pair(running_example):
    """{i2, i3} is securable, in the order i3 then i2."""
    certificate = is_achievable(running_example, {1, 2})
    assert certificate.achievable
    assert certificate.pick_order == (2, 1)
    replay = simulate(running_example, certificate.ranking)
    assert {1, 2} <= replay.bundles[0]


def test_unreachable_pair(running_example):
    """{i1, i2}: whichever she takes first, the other is gone by turn 4."""
    assert not is_achievable(running_example, {0, 1}).achievable
    assert not is_achievable_oracle(running_example, {0, 1}).achievable


def test_empty_target_is_trivially_achievable(running_example):
    certificate = is_achievable(running_example, set())
    assert certificate.achievable
    assert certificate.pick_order == ()
    assert certificate.ranking == (0, 1, 2, 3)
    assert is_achievable_oracle(running_example, set()).achievable


def test_oversized_target_fails_without_exception(running_example):
    certificate = is_achievable(running_example, {0, 1, 2})
    assert certificate == type(certificate)(False)
    assert not is_achievable_oracle(running_example, {0, 1, 2}).achievable


def test_target_validation(running_example):
    with pytest.raises(ValueError, match="out of range"):
        is_achievable(running_example, {9})


def test_oracle_order_budget():
    instance, _ = gen_random(3, 2, 9, mu_manipulator=4)
    with pytest.raises(ResourceLimitError):
        is_achievable_oracle(instance, set(range(9)))
    # A raised budget lets the oversized target through to the size check.
    assert not is_achievable_oracle(instance, set(range(9)), max_orders=400_000).achievable


def test_greedy_matches_oracle_on_random_targets():
    for instance in seeded_instances(60):
        for size in (1, 2, 3):
            target = seeded_targets(instance, size, f"achv-{size}")
            greedy = is_achievable(instance, target)
            oracle = is_achievable_oracle(instance, target)
            assert greedy.achievable == oracle.achievable, (instance, target)


def test_achievability_is_monotone_under_subsets():
    """Any subset of a securable set is securable."""
    for instance in seeded_instances(25):
        target = seeded_targets(instance, 3, "mono")
        if not is_achievable(instance, target).achievable:
            continue
        for size in range(len(target)):
            for subset in itertools.combinations(sorted(target), size):
                assert is_achievable(instance, subset).achievable


def test_certificates_replay(running_example):
    for instance in seeded_instances(40):
        for size in (1, 2):
            target = seeded_targets(instance, size, f"replay-{size}")
            certificate = is_achievable(instance, target)
            if certificate.achievable:
                replay = simulate(instance, certificate.ranking)
                assert target <= replay.bundles[0]


def test_subset_enum_regression(running_example, running_example_steep):
    result = solve_subset_enum(running_example)
    assert result.optimal_utility == 7
    assert result.bundle == {1, 2}
    assert result.stats["subsets_enumerated"] == 6
    assert solve_subset_enum(running_example_steep).optimal_utility == 1997


def test_subset_enum_budget():
    instance, _ = gen_random(1, 2, 24, mu_manipulator=12)
    with pytest.raises(ResourceLimitError):
        solve_subset_enum(instance, budget=1000)


def test_subset_enum_when_manipulator_takes_all():
    instance = Instance(
        items=["a", "b", "c"],
        agents=["solo"],
        sequence=[0, 0, 0],
        profile=[[2, 0, 1]],
        utilities=[2, 1, 3],
    )
    result = solve_subset_enum(instance)
    assert result.optimal_utility == 6
    assert result.bundle == {0, 1, 2}


def test_subset_enum_without_manipulator_turns():
    instance = Instance(
        items=["a", "b"],
        agents=["quiet", "busy"],
        sequence=[1, 1],
        profile=[[0, 1], [1, 0]],
        utilities=[2, 1],
    )
    result = solve_subset_enum(instance)
    assert result.optimal_utility == 0
    assert result.bundle == frozenset()
    assert result.stats["subsets_enumerated"] == 1


def test_brute_force_regression(running_example, running_example_steep):
    assert solve_bruteforce_rankings(running_example).optimal_utility == 7
    assert solve_bruteforce_rankings(running_example_steep).optimal_utility == 1997


def test_brute_force_limit():
    instance, _ = gen_random(2, 2, 9)
    with pytest.raises(ResourceLimitError):
        solve_bruteforce_rankings(instance)


def test_solvers_agree_on_random_instances():
    for instance in seeded_instances(30, items=(4, 5, 6)):
        dp = solve_dp(instance).optimal_utility
        assert solve_subset_enum(instance).optimal_utility == dp
        assert solve_bruteforce_rankings(instance).optimal_utility == dp


def test_subset_enum_matches_dp_beyond_brute_force_reach():
    """DP against bundle enumeration at m 20-30, where m! is far out of reach.

    mu is the largest turn count keeping C(m, mu) at most 20,000, and the
    returned ranking must replay to the returned bundle.
    """
    checked = 0
    for index, m in enumerate(range(20, 31, 2)):
        n = 2 + index % 3
        mu = max(k for k in range(1, m // 2 + 1) if math.comb(m, k) <= 20_000)
        for instance in (
            gen_random(70 + m, n, m, mu_manipulator=mu)[0],
            gen_correlated(70 + m, n, m, 3, mu_manipulator=mu)[0],
        ):
            result = solve_subset_enum(instance)
            assert result.optimal_utility == solve_dp(instance).optimal_utility, (m, n, mu)
            assert simulate(instance, result.ranking).bundles[0] == result.bundle
            checked += 1
    assert checked == 12

import itertools
import math

import pytest

from conftest import milp_solve, seeded_instances, seeded_targets
from seqalloc import (
    Instance,
    ResourceLimitError,
    build_model,
    export_lp,
    gen_correlated,
    gen_random,
    is_achievable,
    simulate,
    solve_bruteforce_rankings,
    solve_dp,
    solve_subset_enum,
)


def milp_secures(instance, target) -> bool:
    """MILP verdict: can the manipulator hold every (0-based) target item?"""
    secure = [item + 1 for item in target]
    return milp_solve(export_lp(build_model(instance)), secure=secure) is not None


def test_reachable_pair(running_example):
    """{i2, i3} is securable, and the certificate's ranking secures it."""
    certificate = is_achievable(running_example, {1, 2})
    assert certificate.achievable
    replay = simulate(running_example, certificate.ranking)
    assert {1, 2} <= replay.bundles[0]


def test_unreachable_pair(running_example):
    """{i1, i2}: whichever she takes first, the other is gone by turn 4."""
    assert not is_achievable(running_example, {0, 1}).achievable
    assert not milp_secures(running_example, {0, 1})


def test_empty_target_is_trivially_achievable(running_example):
    certificate = is_achievable(running_example, set())
    assert certificate.achievable
    assert certificate.ranking == (0, 1, 2, 3)
    assert milp_secures(running_example, set())


def test_oversized_target_fails_without_exception(running_example):
    certificate = is_achievable(running_example, {0, 1, 2})
    assert certificate == type(certificate)(False)
    assert not milp_secures(running_example, {0, 1, 2})


def test_target_validation(running_example):
    with pytest.raises(ValueError, match="out of range"):
        is_achievable(running_example, {9})


def test_greedy_matches_oracle_on_random_targets():
    """Greedy verdicts against the fixed-target MILP, small and at m 12-24.

    The larger instances give the manipulator up to 12 turns, and their
    targets (random sets, the DP's optimal bundle and the truthful
    bundle, each up to mu items) are far past an enumeration of orders.
    """
    for instance in seeded_instances(60):
        for size in (1, 2, 3):
            target = seeded_targets(instance, size, f"achv-{size}")
            assert is_achievable(instance, target).achievable == milp_secures(instance, target), (instance, target)

    verdicts = []
    for index, m in enumerate(range(12, 25, 4)):
        n = 2 + index % 3
        mu = m // 2
        for instance in (
            gen_random(90 + m, n, m, mu_manipulator=mu)[0],
            gen_correlated(90 + m, n, m, 3, mu_manipulator=mu)[0],
        ):
            targets = [seeded_targets(instance, size, f"achv-large-{size}") for size in (2, mu // 2, mu)]
            targets.append(solve_dp(instance).bundle)
            targets.append(simulate(instance).bundles[0])
            for target in targets:
                greedy = is_achievable(instance, target).achievable
                assert greedy == milp_secures(instance, target), (m, n, sorted(target))
                verdicts.append((m, len(target), greedy))
    assert len(verdicts) == 40
    assert any(m >= 20 and size > 8 and greedy for m, size, greedy in verdicts)
    assert any(m >= 20 and size > 8 and not greedy for m, size, greedy in verdicts)


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
    # C(20000, 10000) has over 6,000 digits: the refusal must neither
    # compute nor print it.
    instance, _ = gen_random(1, 2, 20_000)
    with pytest.raises(ResourceLimitError) as info:
        solve_subset_enum(instance)
    assert len(str(info.value)) < 200


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

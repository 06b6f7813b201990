import itertools
import json
import math
import tracemalloc

import pytest

from conftest import milp_solve, seeded_instances, seeded_targets
from seqalloc import (
    GraphInput,
    Instance,
    ManipulationResult,
    ResourceLimitError,
    build_model,
    cli,
    export_lp,
    gen_clique_reduction,
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


def removal_time_rule(instance, target):
    """The greedy rule as first stated, over the instance's fields alone.

    At each of her turns, every unsecured target gets its removal time in
    a continuation where she sits out (never taken: infinity), and she
    secures the target with the smallest (time, truthful position).
    Returns the ranking (None when a target is lost) and two flags: some
    turn had at least two unsecured targets and none taken, and some turn
    secured a target other than her truthful favourite among them.
    """
    truthful = instance.profile[0]
    position = {item: pos for pos, item in enumerate(truthful)}

    def pick(agent, taken, cursors):
        row = instance.profile[agent]
        while row[cursors[agent]] in taken:
            cursors[agent] += 1
        taken.add(row[cursors[agent]])
        return row[cursors[agent]]

    taken, cursors = set(), [0] * instance.num_agents
    unsecured, picks = set(target), []
    none_taken = detour = False
    for step, agent in enumerate(instance.sequence):
        if agent != 0:
            if pick(agent, taken, cursors) in unsecured:
                return None, none_taken, detour
        elif unsecured:
            sit_out_taken, sit_out_cursors = set(taken), list(cursors)
            later = [other for other in instance.sequence[step + 1 :] if other != 0]
            removal = {}
            for time, other in enumerate(later):
                item = pick(other, sit_out_taken, sit_out_cursors)
                if item in unsecured:
                    removal[item] = time
            chosen = min(unsecured, key=lambda item: (removal.get(item, math.inf), position[item]))
            none_taken |= not removal and len(unsecured) > 1
            detour |= chosen != min(unsecured, key=position.__getitem__)
            unsecured.discard(chosen)
            taken.add(chosen)
            picks.append(chosen)
        else:
            picks.append(pick(0, taken, cursors))
    return tuple(picks) + tuple(item for item in truthful if item not in picks), none_taken, detour


def test_certificate_matches_removal_time_rule():
    """``is_achievable`` secures what the removal-time rule secures, turn by turn.

    Verdict and ranking must equal the rule's on random and correlated
    instances with targets of every size 1..mu.  The cases must include
    turns where the others take none of at least two unsecured targets
    (the truthful fallback decides) and turns where the first target
    taken is not her truthful favourite (the removal time decides).
    """
    none_taken = detour = 0
    for index, m in enumerate(range(6, 17)):
        n = 2 + index % 3
        mu = max(1, m // n)
        for seed in (1, 2):
            for instance in (
                gen_random(seed * 50 + m, n, m, mu_manipulator=mu)[0],
                gen_correlated(seed * 50 + m, n, m, 2, mu_manipulator=mu)[0],
            ):
                for size in range(1, mu + 1):
                    target = seeded_targets(instance, size, f"removal-{seed}")
                    ranking, fallback, detoured = removal_time_rule(instance, target)
                    certificate = is_achievable(instance, target)
                    assert (certificate.achievable, certificate.ranking) == (ranking is not None, ranking), (
                        instance.to_json(),
                        sorted(target),
                    )
                    none_taken += fallback
                    detour += detoured
    assert none_taken and detour, (none_taken, detour)


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


def plain_scan(instance):
    """Every mu-item set in lexicographic order; public checks; ties to the smallest set."""
    utilities = instance.utilities
    mu = instance.manipulator_turns()
    best_set = tuple(sorted(simulate(instance).bundles[0]))
    best_value = sum(utilities[item] for item in best_set)
    ranking = instance.profile[0]
    checks = 0
    for subset in itertools.combinations(range(instance.num_items), mu):
        value = sum(utilities[item] for item in subset)
        if value < best_value or (value == best_value and subset >= best_set):
            continue
        checks += 1
        certificate = is_achievable(instance, subset)
        if certificate.achievable:
            best_set, best_value, ranking = subset, value, certificate.ranking
    stats = {
        "algorithm": "subset",
        "subsets_enumerated": math.comb(instance.num_items, mu),
        "achievability_checks": checks,
        "elapsed_ms": 0.0,
    }
    return ManipulationResult(best_value, tuple(ranking), frozenset(best_set), stats)


def test_subset_enum_matches_plain_scan():
    """Branch and bound against the scan it prunes: same JSON, checks included.

    Random and correlated instances at m 10-20 (mu the largest turn count
    keeping C(m, mu) at most 5,000) and both clique gadgets.  Equal
    ``achievability_checks`` means the bound skipped only sets the scan
    would not have checked either.
    """
    instances = []
    for index, m in enumerate(range(10, 21)):
        n = 2 + index % 4
        mu = max(k for k in range(1, m // 2 + 1) if math.comb(m, k) <= 5_000)
        for seed in (1, 2):
            instances.append(gen_random(seed * 100 + m, n, m, mu_manipulator=mu)[0])
            instances.append(gen_correlated(seed * 100 + m, n, m, 3, mu_manipulator=mu)[0])
    for edges in (
        ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)),
        ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)),
    ):
        instances.append(gen_clique_reduction(GraphInput(5, edges), 3)[0])

    improved = 0
    for instance in instances:
        expected = plain_scan(instance)
        assert solve_subset_enum(instance).to_json() == expected.to_json(), instance.to_json()
        improved += expected.ranking != instance.profile[0]
    assert improved >= 10


def test_subset_enum_ties_go_to_the_smallest_set():
    """Two optima worth 15: {i1, i2} beats the truthful {i3, i5} on the tie.

    Truthfully she takes i5, a2 takes i1, a3 takes i2 (i5 is gone), she
    takes i3.  Taking i1 first instead sends a2 to i3 and a3 to i5, and
    she ends with i2.  {i2, i5} (17) is out of reach: whichever of i1 or
    i5 she leaves, a2 or a3 takes it before her second turn, and then the
    other takes i2.
    """
    instance = Instance(
        items=["i1", "i2", "i3", "i4", "i5"],
        agents=["a1", "a2", "a3"],
        sequence=[0, 1, 2, 0, 2],
        profile=[[4, 1, 0, 2, 3], [0, 2, 3, 1, 4], [4, 1, 0, 2, 3]],
        utilities=[7, 8, 6, 1, 9],
    )
    assert simulate(instance).bundles[0] == {2, 4}
    assert is_achievable(instance, {2, 4}).achievable
    assert not is_achievable(instance, {1, 4}).achievable
    result = solve_subset_enum(instance)
    assert result.optimal_utility == solve_bruteforce_rankings(instance).optimal_utility == 15
    assert result.bundle == {0, 1}
    assert simulate(instance, result.ranking).bundles[0] == {0, 1}


def test_subset_enum_keeps_a_unique_truthful_optimum():
    """Only the truthful bundle is optimal, so the truthful report comes back.

    a2 takes i2 then i1 before she picks; {i2, i4} (13) is checked and
    fails, and the truthful {i3, i4} (11) stays.
    """
    instance = Instance(
        items=["i1", "i2", "i3", "i4"],
        agents=["a1", "a2"],
        sequence=[1, 1, 0, 0],
        profile=[[3, 1, 2, 0], [1, 0, 3, 2]],
        utilities=[1, 6, 4, 7],
    )
    result = solve_subset_enum(instance)
    assert result.optimal_utility == solve_bruteforce_rankings(instance).optimal_utility == 11
    assert result.bundle == {2, 3}
    assert result.ranking == instance.profile[0]
    assert result.stats["achievability_checks"] == 1


def test_subset_enum_at_extreme_turn_counts(tmp_path):
    """mu = m (one agent) and mu = m - 1 (two agents) at 2,000 items.

    Both go through ``solve --algo subset``, which must exit 0 (a
    RecursionError from a walk as deep as mu would exit 6), and the
    solve's traced peak must stay far below an m x mu bound table's.
    Expected values: alone, she takes everything;
    with one other pick at step t she picks t items first, so she can
    hand over any of the other agent's top t + 1 items and keeps all
    but the cheapest of them.
    """
    cases = []
    alone, _ = gen_random(5, 1, 2_000)
    cases.append((alone, sum(alone.utilities)))
    pair, _ = gen_random(5, 2, 2_000, mu_manipulator=1_999)
    step = pair.sequence.index(1)
    lost = min(pair.utilities[item] for item in pair.profile[1][: step + 1])
    cases.append((pair, sum(pair.utilities) - lost))

    path = tmp_path / "instance.json"
    out = tmp_path / "result.json"
    for instance, expected in cases:
        path.write_text(instance.to_json(), encoding="utf-8")
        tracemalloc.start()
        try:
            code = cli.main(["solve", "--algo", "subset", "--in", str(path), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["optimal_utility"] == expected
        assert simulate(instance, doc["ranking"]).bundles[0] == set(doc["bundle"])
        assert peak < 4_000_000, peak


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


def dp_probe(instance: Instance, target: frozenset[int]) -> Instance:
    """The instance with a manipulator who must hold ``target`` to do well.

    Her ranking puts the target first, and each target item is worth more
    than all other items together, so every bundle holding the target
    beats every bundle missing one of its items.  Whether a target can be
    secured does not depend on her truthful ranking, so the target is
    securable exactly when the probe's optimal bundle contains it.
    """
    rest = [item for item in instance.profile[0] if item not in target]
    ranking = [*sorted(target), *rest]
    utilities = [0] * instance.num_items
    for value, item in enumerate(reversed(ranking), start=1):
        utilities[item] = value if item not in target else value + len(rest) * (len(rest) + 1) // 2
    return Instance(instance.items, instance.agents, instance.sequence, [ranking, *instance.profile[1:]], utilities)


def test_is_achievable_matches_dp_probe_at_100_to_200_items():
    """Greedy achievability against the DP at m 100-200, far past the MILP's m <= 24.

    Targets: random sets of 1, 2, mu/2 and mu items, the optimal bundle,
    and that bundle with its worst item traded for her best item outside it.
    """
    verdicts = []
    for instance in (
        gen_random(1, 3, 100)[0],
        gen_random(2, 5, 100)[0],
        gen_correlated(3, 4, 150, 4)[0],
        gen_random(4, 3, 200)[0],
        gen_correlated(5, 4, 200, 3)[0],
    ):
        mu = instance.manipulator_turns()
        bundle = solve_dp(instance).bundle
        worst = next(item for item in reversed(instance.profile[0]) if item in bundle)
        best_outside = next(item for item in instance.profile[0] if item not in bundle)
        targets = [seeded_targets(instance, size, "dp-probe") for size in (1, 2, mu // 2, mu)]
        targets += [bundle, bundle - {worst} | {best_outside}]
        for target in targets:
            certificate = is_achievable(instance, target)
            assert certificate.achievable == (target <= solve_dp(dp_probe(instance, target)).bundle)
            if certificate.achievable:
                assert target <= simulate(instance, certificate.ranking).bundles[0]
            verdicts.append(certificate.achievable)
    # 16 of the 30 targets can be secured and 14 cannot.
    assert (len(verdicts), verdicts.count(True)) == (30, 16)


def test_subset_enum_matches_dp_at_100_to_200_items():
    """Bundle enumeration against the DP at m 100-200 with mu 2-3.

    C(200, 3) is 1,313,400 bundles, within the default budget.  Each
    returned ranking must replay to the returned bundle and value.
    """
    gains = 0
    for m in (100, 150, 200):
        for mu in (2, 3):
            for n in (3, 4):
                for seed in (2, 3):
                    for instance in (
                        gen_random(seed, n, m, mu_manipulator=mu)[0],
                        gen_correlated(seed, n, m, 3, mu_manipulator=mu)[0],
                    ):
                        result = solve_subset_enum(instance)
                        optimum = solve_dp(instance).optimal_utility
                        assert result.optimal_utility == optimum, (m, mu, n, seed)
                        replay = simulate(instance, result.ranking).bundles[0]
                        assert replay == result.bundle
                        assert sum(instance.utilities[item] for item in replay) == optimum
                        gains += optimum > sum(instance.utilities[item] for item in simulate(instance).bundles[0])
    # Manipulation pays on 9 of the 48, so the walk has to search: up to
    # 24,244 achievability checks on one.
    assert gains == 9

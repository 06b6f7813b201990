"""Deciding whether the manipulator can secure a given set of items.

A target set is achievable when some reported ranking leaves the
manipulator holding at least those items after the protocol runs.  Sets
larger than her number of picking turns are trivially out of reach.  For
the rest, a greedy rule suffices: at each of her turns she secures the
still-unsecured target that the other agents would otherwise take
soonest.  The test suite holds the rule to an external MILP solve of the
integer program with the target required in the manipulator's bundle,
which shares no code with this module.

On top of the check sit two exhaustive solvers for the best-response
problem: one enumerating candidate bundles (exponential only in the
number of the manipulator's turns) and one trying every reported
ranking (factorial, cross-check only).  Every replay here picks through
:func:`~seqalloc.core.greedy_pick`, the same kernel as ``simulate``.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Iterable, NamedTuple

from .core import (
    DEFAULT_RANKING_ITEM_LIMIT,
    DEFAULT_SUBSET_BUDGET,
    MANIPULATOR,
    Instance,
    ManipulationResult,
    ResourceLimitError,
    bundle_utility,
    greedy_pick,
    simulate,
)

_NEVER = 1 << 60


class AchievabilityCertificate(NamedTuple):
    """Outcome of an achievability check.

    For achievable targets, ``ranking`` is a report that secures them:
    replaying it yields a bundle containing every target.  For
    unachievable targets it is None.
    """

    achievable: bool
    ranking: tuple[int, ...] | None = None


def _checked_target(instance: Instance, target: Iterable[int]) -> frozenset[int]:
    target = frozenset(target)
    for item in target:
        if not isinstance(item, int) or isinstance(item, bool) or not 0 <= item < instance.num_items:
            raise ValueError(f"target item {item!r} out of range")
    return target


def is_achievable(instance: Instance, target: Iterable[int]) -> AchievabilityCertificate:
    """Greedy most-endangered-first check.

    At each manipulator turn, every unsecured target's removal time is
    measured in a hypothetical continuation where the manipulator sits
    out all her turns; she then secures the target that would disappear
    first (ties: the one she truthfully prefers).  Runs in
    O(mu * (m + n)) per call.  The test suite holds every verdict to a
    MILP solve of the integer program that requires the target in the
    manipulator's bundle.
    """
    target = _checked_target(instance, target)
    if len(target) > instance.manipulator_turns():
        return AchievabilityCertificate(False)
    if not target:
        return AchievabilityCertificate(True, instance.profile[MANIPULATOR])

    m = instance.num_items
    sequence = instance.sequence
    profile = instance.profile
    truthful_pos = {item: pos for pos, item in enumerate(profile[MANIPULATOR])}

    taken = [False] * m
    cursors = [0] * instance.num_agents
    unsecured = set(target)
    my_picks: list[int] = []

    for step, agent in enumerate(sequence):
        if agent != MANIPULATOR:
            if greedy_pick(profile[agent], cursors, agent, taken) in unsecured:
                return AchievabilityCertificate(False)
        elif unsecured:
            item = _most_endangered(instance, taken, cursors, step, unsecured, truthful_pos)
            unsecured.discard(item)
            taken[item] = True
            my_picks.append(item)
        else:
            my_picks.append(greedy_pick(profile[MANIPULATOR], cursors, MANIPULATOR, taken))

    mine = set(my_picks)
    ranking = tuple(my_picks + [item for item in profile[MANIPULATOR] if item not in mine])
    return AchievabilityCertificate(True, ranking)


def _most_endangered(
    instance: Instance,
    taken: list[int],
    cursors: list[int],
    step: int,
    unsecured: set[int],
    truthful_pos: dict[int, int],
) -> int:
    """Unsecured target taken soonest if the manipulator stops picking."""
    hypothetical = taken.copy()
    hypo_cursors = cursors.copy()
    removal: dict[int, int] = {}
    missing = len(unsecured)
    for t in range(step + 1, len(instance.sequence)):
        agent = instance.sequence[t]
        if agent == MANIPULATOR:
            continue
        item = greedy_pick(instance.profile[agent], hypo_cursors, agent, hypothetical)
        if item in unsecured:
            removal[item] = t
            missing -= 1
            if missing == 0:
                break
    return min(unsecured, key=lambda item: (removal.get(item, _NEVER), truthful_pos[item]))


def solve_subset_enum(instance: Instance, budget: int = DEFAULT_SUBSET_BUDGET) -> ManipulationResult:
    """Optimal manipulation by enumerating candidate bundles.

    With mu picking turns the optimal bundle has exactly mu items, so
    enumerating the C(m, mu) item sets and keeping the best achievable
    one is exact.  Subsets are visited in lexicographic order; a subset
    is tested only when it beats the incumbent (the truthful bundle
    seeds it, being always achievable), which prunes almost all
    achievability calls.
    Ties in value resolve to the lexicographically smallest sorted set.
    """
    start = time.perf_counter()
    m = instance.num_items
    mu = instance.manipulator_turns()
    # C(m, mu) as a running product of exact binomials C(m - k + i, i),
    # which only grow, so the refusal comes before the count gets large.
    total = 1
    k = min(mu, m - mu)
    for i in range(1, k + 1):
        total = total * (m - k + i) // i
        if total > budget:
            raise ResourceLimitError(
                f"subset enumeration needs C({m}, {mu}) > {budget} candidates; raise the budget to force it"
            )

    utilities = instance.utilities
    truthful = simulate(instance)
    best_set = tuple(sorted(truthful.bundles[MANIPULATOR]))
    best_value = bundle_utility(instance, best_set)
    best_certificate: AchievabilityCertificate | None = None
    checks = 0
    for subset in itertools.combinations(range(m), mu):
        value = sum(utilities[item] for item in subset)
        if value < best_value or (value == best_value and subset >= best_set):
            continue
        checks += 1
        certificate = is_achievable(instance, subset)
        if certificate.achievable:
            best_set = subset
            best_value = value
            best_certificate = certificate

    if best_certificate is None:
        ranking = instance.profile[MANIPULATOR]
    else:
        ranking = best_certificate.ranking
    elapsed = (time.perf_counter() - start) * 1000.0
    stats = {
        "algorithm": "subset",
        "subsets_enumerated": total,
        "achievability_checks": checks,
        "elapsed_ms": elapsed,
    }
    return ManipulationResult(
        optimal_utility=best_value,
        ranking=tuple(ranking),
        bundle=frozenset(best_set),
        stats=stats,
    )


def solve_bruteforce_rankings(
    instance: Instance,
    limit: int = DEFAULT_RANKING_ITEM_LIMIT,
) -> ManipulationResult:
    """Optimal manipulation by trying all m! reports.  Cross-check only.

    Rankings are tried in lexicographic order and ties keep the first
    optimum, so the result is deterministic.  Permutations are valid by
    construction, so each is scored by a bare ``greedy_pick`` replay and
    only the winner goes through :func:`~seqalloc.core.simulate`.
    Refuses instances beyond ``limit`` items.
    """
    if instance.num_items > limit:
        raise ResourceLimitError(
            f"brute force over {instance.num_items}! rankings exceeds the {limit}-item limit"
        )
    start = time.perf_counter()
    m = instance.num_items
    n = instance.num_agents
    utilities = instance.utilities
    rows = list(instance.profile)

    def value(ranking: tuple[int, ...]) -> int:
        rows[MANIPULATOR] = ranking
        taken = [False] * m
        cursors = [0] * n
        total = 0
        for agent in instance.sequence:
            item = greedy_pick(rows[agent], cursors, agent, taken)
            if agent == MANIPULATOR:
                total += utilities[item]
        return total

    best_ranking = max(itertools.permutations(range(m)), key=value)
    bundle = simulate(instance, best_ranking).bundles[MANIPULATOR]
    elapsed = (time.perf_counter() - start) * 1000.0
    stats = {
        "algorithm": "brute",
        "rankings_tried": math.factorial(m),
        "elapsed_ms": elapsed,
    }
    return ManipulationResult(
        optimal_utility=bundle_utility(instance, bundle),
        ranking=best_ranking,
        bundle=bundle,
        stats=stats,
    )

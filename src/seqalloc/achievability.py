"""Deciding whether the manipulator can secure a given set of items.

A target set is achievable when some reported ranking leaves the
manipulator holding at least those items after the protocol runs.  Sets
larger than her number of picking turns are trivially out of reach.  For
the rest, a greedy rule suffices: at each of her turns she secures the
still-unsecured target that the other agents would otherwise take
soonest.  Each of their turns removes exactly one item, so that is the
first unsecured target they take while she sits out, or, when they
take none, the one she truthfully prefers.  The test suite holds the
rule to an external MILP solve of the integer program with the target
required in the manipulator's bundle, which shares no code with this
module.

On top of the check sit two exhaustive solvers for the best-response
problem: a branch and bound over candidate bundles (C(m, mu) sets in
the worst case, exponential only in the number of the manipulator's
turns) and one trying every reported ranking (factorial, cross-check
only).  The branch and bound cuts a branch when the chosen items plus
the largest utilities still available fall below the best bundle found
so far; sets cut that way would lose on value alone, so it makes
exactly the achievability checks that a scan of every set would.
Every replay here picks through :func:`~seqalloc.core.greedy_pick`, the
same kernel as ``simulate``.
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

    At each manipulator turn the other agents' remaining turns are
    replayed with her sitting out; she secures the first unsecured
    target they take (none taken: the one she truthfully prefers).
    Each replay copies the m-entry ``taken`` list and moves up to n - 1
    cursors across m-entry rows: O(mu * n * m) per call at worst.  The
    test suite holds every verdict to a MILP solve of the integer
    program that requires the target in the manipulator's bundle.
    """
    target = _checked_target(instance, target)
    if len(target) > instance.manipulator_turns():
        return AchievabilityCertificate(False)
    if not target:
        return AchievabilityCertificate(True, instance.profile[MANIPULATOR])
    ranking = _secure(_Protocol.of(instance), target)
    return AchievabilityCertificate(ranking is not None, ranking)


class _Protocol(NamedTuple):
    """What the greedy rule reads of an instance, computed once per instance."""

    sequence: tuple[int, ...]
    profile: tuple[tuple[int, ...], ...]
    others: list[int]  # the other agents' turns, in order
    utilities: tuple[int, ...]  # strictly decreasing along her truthful ranking

    @classmethod
    def of(cls, instance: Instance) -> _Protocol:
        others = [agent for agent in instance.sequence if agent != MANIPULATOR]
        return cls(instance.sequence, instance.profile, others, instance.utilities)


def _secure(protocol: _Protocol, target: Iterable[int]) -> tuple[int, ...] | None:
    """The greedy rule on a nonempty, in-range target of at most mu items.

    Returns a ranking that secures ``target``, or None when none does.
    Callers check the target; this kernel does not.
    """
    sequence, profile, others, utilities = protocol
    taken = [False] * len(utilities)
    cursors = [0] * len(profile)
    unsecured = set(target)
    my_picks: list[int] = []
    others_done = 0

    for agent in sequence:
        if agent != MANIPULATOR:
            others_done += 1
            if greedy_pick(profile[agent], cursors, agent, taken) in unsecured:
                return None
        elif unsecured:
            item = _most_endangered(profile, others[others_done:], taken, cursors, unsecured, utilities)
            unsecured.discard(item)
            taken[item] = True
            my_picks.append(item)
        else:
            my_picks.append(greedy_pick(profile[MANIPULATOR], cursors, MANIPULATOR, taken))

    mine = set(my_picks)
    return tuple(my_picks + [item for item in profile[MANIPULATOR] if item not in mine])


def _most_endangered(
    profile: tuple[tuple[int, ...], ...],
    pickers: list[int],
    taken: list[bool],
    cursors: list[int],
    unsecured: set[int],
    utilities: tuple[int, ...],
) -> int:
    """Unsecured target taken soonest if the manipulator stops picking.

    ``pickers`` are the other agents' remaining turns, in order.  Each
    removes exactly one item, so the first unsecured target taken is the
    most endangered; when none is, it is the truthfully preferred one.
    """
    hypothetical = taken.copy()
    hypo_cursors = cursors.copy()
    for agent in pickers:
        item = greedy_pick(profile[agent], hypo_cursors, agent, hypothetical)
        if item in unsecured:
            return item
    return max(unsecured, key=utilities.__getitem__)


def _completion_bounds(utilities: tuple[int, ...], mu: int) -> list[list[int]]:
    """``bounds[d][j]``: the most that mu - d items from j + d onward can add.

    That is the sum of the mu - d largest utilities among items
    j + d .. m - 1.  A bundle's d-th smallest item (0-based) lies in
    d .. d + m - mu, so j runs over 0 .. m - mu and the table holds
    (mu + 1) x (m - mu + 1) entries, never m x mu.  Each row follows
    from the one below: the best completion from j either skips item
    j + d or takes it.
    """
    slack = len(utilities) - mu
    row = [0] * (slack + 1)
    rows = [row]
    for d in range(mu - 1, -1, -1):
        below = row
        row = [0] * (slack + 1)
        best = row[slack] = utilities[slack + d] + below[slack]
        for j in range(slack - 1, -1, -1):
            take = utilities[j + d] + below[j]
            if take > best:
                best = take
            row[j] = best
        rows.append(row)
    rows.reverse()
    return rows


def solve_subset_enum(instance: Instance, budget: int = DEFAULT_SUBSET_BUDGET) -> ManipulationResult:
    """Optimal manipulation by branch and bound over candidate bundles.

    With mu picking turns the optimal bundle has exactly mu items, so
    the best achievable one among the C(m, mu) item sets is optimal.
    The truthful bundle, always achievable, seeds the incumbent.  Sets
    are walked depth first in lexicographic order, an explicit stack
    holding the chosen prefix and its utility.  A branch is cut once
    the prefix plus the largest utilities still available falls below
    the incumbent, so every cut set would have lost on value alone.  A
    set that survives to a leaf is checked for achievability only when
    it beats the incumbent: higher value, or equal value and
    lexicographically smaller.  The sets checked, and the order they
    are checked in, are those of a plain scan over all C(m, mu) sets;
    only the sets that lose on value are skipped faster.  Ties in value
    resolve to the lexicographically smallest sorted set.

    ``subsets_enumerated`` reports C(m, mu), the worst case, which is
    held to ``budget`` before the walk starts.
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
    ranking = instance.profile[MANIPULATOR]
    checks = 0
    if mu:
        protocol = _Protocol.of(instance)
        bounds = _completion_bounds(utilities, mu)
        slack = m - mu
        last = mu - 1
        picks = [0] * mu
        values = [0] * mu  # values[d]: utility of picks[:d]
        depth = item = 0
        while True:
            j = item - depth
            if j > slack or values[depth] + bounds[depth][j] < best_value:
                # Bounds shrink as j grows: no later item at this depth helps.
                if depth == 0:
                    break
                depth -= 1
                item = picks[depth] + 1
                continue
            value = values[depth] + utilities[item]
            picks[depth] = item
            item += 1
            if value + bounds[depth + 1][j] < best_value:
                continue
            if depth < last:
                depth += 1
                values[depth] = value
                continue
            if value == best_value and tuple(picks) >= best_set:
                continue
            checks += 1
            secured = _secure(protocol, picks)
            if secured is not None:
                best_set = tuple(picks)
                best_value = value
                ranking = secured

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

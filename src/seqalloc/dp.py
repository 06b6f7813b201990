"""Exact best response via dynamic programming over reachable pick states.

A state (k, S) says: S is the set of items already identified as taken,
and on top of those the manipulator has picked k items not yet pinned
down.  Both components together fix the progress of the protocol, since
|S| + k picks have happened.  Three moves expand a state whose next
picker is known from the sequence:

* slot: the next picker is the manipulator; she banks an unspecified
  pick, moving to (k + 1, S),
* claim: some non-manipulator a is next and her favourite remaining item
  b is declared to be one of the manipulator's k banked picks, moving to
  (k - 1, S + b) and crediting u(b); agent a still has to move,
* pick: agent a actually takes b, moving to (k, S + b).

Backward induction over this graph maximizes the manipulator's total
utility; unresolved banked picks at the end of the sequence are free
grabs from the leftovers.  The graph is tiny in practice because only
states reachable through the non-manipulators' greedy behaviour exist:
every reachable S equals the union of the prefixes that the other agents
have scanned past, which caps the number of distinct sets well below
2^m (see :func:`state_set_bounds` for the implemented caps).

The graph is stored and solved set-major.  A state is a set plus a
banked count, so each distinct taken set carries one int, the bitmask of
its reachable k.  Slots stay within a set, and claims and picks lead to
sets one item larger, so the sets are expanded in order of size, each
only once every arc into it is known.  On a set of size s the picker of
state k is the one at position s + k of the sequence: per size, one
mask per agent marks her positions, shifted down by s.  Slots close the
reachable mask with one carry, and a non-manipulator's move applies at
once to every k at which she picks: her favourite remaining item b
depends on S alone, and the successor S + b gains the same k (picks)
and k - 1 (claims).  Each set keeps one rank-order mask per
non-manipulator, the positions of her ranking already taken, so her
favourite is the lowest unset position; these masks are built only when
a move reaches a new set, and dropped once its size is expanded.
Induction solves the sets in reverse id order and records, per set, the
k at which claiming wins; ranking recovery walks those bits from the
start.
"""

from __future__ import annotations

import time
from operator import or_
from typing import NamedTuple

from .core import (
    DEFAULT_MAX_STATES,
    MANIPULATOR,
    Instance,
    ManipulationResult,
    ResourceLimitError,
    bundle_utility,
    profile_metrics,
    simulate,
)


class StateGraph(NamedTuple):
    """Reachable-state graph, stored per distinct taken set.

    Lists are indexed by set id.  Ids are handed out in order of set
    size, and within a size in the order the sets were first reached, so
    set 0 is the empty set and every move leads to a later id.
    ``taken[i]`` is the set as a bitmask over item indices and
    ``banked[i]`` has bit k set when the state (k, set i) is reachable.
    ``moves[i]`` lists one (ks, successor, item) triple per
    non-manipulator who moves from set i: ``ks`` masks the reachable k at
    which she is the next picker, ``item`` is her favourite remaining
    item and ``successor`` the id of set i plus that item.  Each k in
    ``ks`` has a pick arc to (k, successor), and a claim arc to
    (k - 1, successor) when k > 0.  Every other reachable k has a slot
    arc to (k + 1, set i), unless all m picks are made.
    """

    taken: list[int]
    banked: list[int]
    moves: list[tuple[tuple[int, int, int], ...]]
    num_states: int
    num_arcs: int
    distinct_sets: int  # distinct taken sets with items still on the table


def build_state_graph(instance: Instance, max_states: int = DEFAULT_MAX_STATES) -> StateGraph:
    """Expand every reachable state from (0, empty set).

    ``max_states`` caps the number of states.  Each set's count is
    checked before the set is expanded, and the error says how far the
    expansion got and what the proven caps allow.
    """
    m = instance.num_items
    mu = instance.manipulator_turns()
    window = (1 << mu + 1) - 1  # banked counts 0..mu
    turns = [0] * instance.num_agents  # bit i: the agent picks at position i
    for position, agent in enumerate(instance.sequence):
        turns[agent] |= 1 << position
    others = [(turns[a], row) for a, row in enumerate(instance.profile) if a != MANIPULATOR]
    rank_bits: list[list[int]] = [[] for _ in range(m)]  # per item, its bit in each rank mask
    for _, row in others:
        for rank, item in enumerate(row):
            rank_bits[item].append(1 << rank)

    taken = [0]
    banked = [1]
    moves: list[tuple[tuple[int, int, int], ...]] = []
    rank_masks = [(0,) * len(others)]  # per set of the size being expanded
    states = arcs = 0
    start = size = 0
    while start < len(taken):
        slots = turns[MANIPULATOR] >> size & window
        pickers = [
            (turn >> size & window, other, row)
            for other, (turn, row) in enumerate(others)
            if turn >> size & window
        ]
        grown_ids: dict[int, int] = {}
        grown_masks: list[tuple[int, ...]] = []
        for sid, ranks in enumerate(rank_masks, start):
            # Every k at the start of a run of slots reaches the run's end.
            ks = banked[sid]
            ks |= (slots + (ks & slots)) ^ slots
            banked[sid] = ks
            states += ks.bit_count()
            if states > max_states:
                caps = [cap for cap in state_set_bounds(instance).values() if cap is not None]
                bound = (min(caps) + 1) * (mu + 1)  # sets, with the spent one, times the k
                raise ResourceLimitError(
                    f"state graph exceeds max_states={max_states} at set size {size} of {m} "
                    f"({states} states counted; the proven caps allow at most {bound})"
                )
            arcs += (ks & slots).bit_count()
            mask = taken[sid]
            out: list[tuple[int, int, int]] = []
            for turn, other, row in pickers:
                moving = ks & turn
                if moving:
                    scanned = ranks[other]
                    item = row[(~scanned & (scanned + 1)).bit_length() - 1]
                    grown = mask | 1 << item
                    succ = grown_ids.get(grown)
                    if succ is None:
                        succ = grown_ids[grown] = len(taken)
                        taken.append(grown)
                        banked.append(0)
                        grown_masks.append(tuple(map(or_, ranks, rank_bits[item])))
                    banked[succ] |= moving | moving >> 1
                    arcs += 2 * moving.bit_count() - (moving & 1)
                    out.append((moving, succ, item))
            moves.append(tuple(out))
        start += len(rank_masks)
        rank_masks = grown_masks
        size += 1

    # The spent position (every item identified) is not a picking position;
    # the closed-form caps count sets where someone can still move, so it
    # stays out of distinct_sets.  It still appears in taken, always last.
    distinct = len(taken) - (taken[-1] == (1 << m) - 1)
    return StateGraph(taken, banked, moves, states, arcs, distinct)


def backward_induction(graph: StateGraph, utilities: tuple[int, ...]) -> tuple[int, list[int]]:
    """Return the root value and, per set, the mask of k where a claim is chosen.

    Each state's value is minus the utility the other agents still take
    from it on: a pick arc costs the picked item, claim and slot arcs
    cost nothing, and terminal states are worth 0, because the
    manipulator's banked picks grab every leftover at the end of the
    sequence.  This differs from her own utility from the state on by
    sum(u) - u(taken set), a constant per state, so the argmax is the
    same, and the root value is sum(u) plus the root's value.  Sets are
    solved in reverse id order, so every successor set is solved first.
    Ties between claiming and letting an agent pick go to the claim,
    which keeps the recovered ranking deterministic.
    """
    taken, banked, moves = graph.taken, graph.banked, graph.moves
    floor = -sum(utilities) - 1  # below every value, so no claim wins at k = 0
    values: list[list[int]] = [[]] * len(moves)  # per set: floor, then the value of each k
    claims = [0] * len(moves)
    size, above = -1, len(moves)
    for sid in range(len(moves) - 1, -1, -1):
        if taken[sid].bit_count() != size:
            # The first set of a new size, one smaller: no set left moves
            # to the sets two sizes up, from ``above`` on.
            size = taken[sid].bit_count()
            del values[above:]
            above = sid + 1
        ks = banked[sid]
        # One spare entry on top: the terminal state copies the 0 above it.
        here = [0] * (ks.bit_length() + 2)
        here[0] = floor
        won = 0
        for moving, succ, item in moves[sid]:
            ks ^= moving
            after = values[succ]
            cost = utilities[item]
            while moving:
                bit = moving & -moving
                moving ^= bit
                k = bit.bit_length()  # k + 1 indexes the value of k
                pick = after[k] - cost
                claim = after[k - 1]
                if claim >= pick:
                    here[k] = claim
                    won |= bit
                else:
                    here[k] = pick
        # What is left are slots and the terminal state, each worth the
        # state above it.
        while ks:
            k = ks.bit_length()
            ks ^= 1 << k - 1
            here[k] = here[k + 1]
        values[sid] = here
        claims[sid] = won
    return sum(utilities) + values[0][1], claims


def _recover_ranking(
    graph: StateGraph, claims: list[int], instance: Instance
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Read an optimal report off the chosen claims.

    Claimed items fill the manipulator's pick turns in claim order; banked
    picks still unresolved at the end are spent on the leftovers in
    truthful order.  Everything she does not pick is appended in truthful
    order, which cannot change the outcome for her.
    """
    claimed: list[int] = []
    sid = k = position = 0
    while position < instance.num_items:
        bit = 1 << k
        for moving, succ, item in graph.moves[sid]:
            if moving & bit:
                if claims[sid] & bit:
                    # The same agent is still to move, from (k - 1, succ).
                    claimed.append(item)
                    k -= 1
                else:
                    position += 1
                sid = succ
                break
        else:
            k += 1
            position += 1
    final = graph.taken[sid]
    truthful = instance.profile[MANIPULATOR]
    leftovers = [item for item in truthful if not final >> item & 1]
    mine = claimed + leftovers
    taken_by_me = set(mine)
    ranking = tuple(mine + [item for item in truthful if item not in taken_by_me])
    return ranking, frozenset(mine)


def state_set_bounds(instance: Instance) -> dict:
    """The four proven caps on the number of distinct taken sets.

    With m items, n agents, mu manipulator turns and rg the profile's
    range_max, the keys follow the stats report: ``m_pow`` is m**(n-1),
    ``mu`` is m*(mu+1)**(n-1), ``rg_n`` is m*(2*rg)**(n-2) (needs at
    least three agents), ``rg`` is m*4**rg (needs a second agent for rg
    to exist).  Inapplicable bounds are None.
    """
    m = instance.num_items
    n = instance.num_agents
    range_max = profile_metrics(instance).range_max
    bounds: dict = {
        "m_pow": m ** (n - 1),
        "mu": m * (instance.manipulator_turns() + 1) ** (n - 1),
        "rg_n": None,
        "rg": None,
    }
    if range_max is not None:
        if n >= 3:
            bounds["rg_n"] = m * (2 * range_max) ** (n - 2)
        bounds["rg"] = m * 4**range_max
    return bounds


def solve_dp(instance: Instance, max_states: int = DEFAULT_MAX_STATES) -> ManipulationResult:
    """Optimal manipulation by backward induction over the state graph.

    The returned ranking is replayed through :func:`simulate` before
    returning, so the reported bundle and value are guaranteed to be what
    the protocol actually produces for that report.
    """
    start = time.perf_counter()
    graph = build_state_graph(instance, max_states=max_states)
    value, choices = backward_induction(graph, instance.utilities)
    ranking, bundle = _recover_ranking(graph, choices, instance)

    replay = simulate(instance, ranking)
    if replay.bundles[MANIPULATOR] != bundle or bundle_utility(instance, bundle) != value:
        raise RuntimeError("internal error: recovered ranking does not replay to the computed optimum")

    stats = {
        "algorithm": "dp",
        "states": graph.num_states,
        "distinct_sets": graph.distinct_sets,
        "arcs": graph.num_arcs,
    }
    stats.update((f"bound_{name}", cap) for name, cap in state_set_bounds(instance).items())
    stats["elapsed_ms"] = (time.perf_counter() - start) * 1000.0
    return ManipulationResult(optimal_utility=value, ranking=ranking, bundle=bundle, stats=stats)

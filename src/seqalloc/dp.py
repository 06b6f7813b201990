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

The same observation gives the graph its two layers.  On reachable
states S is fixed by each non-manipulator's cursor, the position of her
favourite remaining item in her ranking, so one int packing the cursor
vector identifies S.  The set layer gives each distinct cursor key a set
id when it is first reached and stores the set's bitmask once.  A
non-manipulator's move, the item she takes and the successor set,
depends on her and S alone, not on k, so it is computed at most once
per (picker, set id) and kept in flat per-picker lists; a claim or pick
of item b advances only the cursors that pointed at b.  The banked
layer holds the states: each carries k, its set id and its arcs, in
flat parallel lists indexed by state id.  A state's id is fixed when it
is first discovered; a separate processing order drives backward
induction.  Induction and ranking recovery read the same lists.
"""

from __future__ import annotations

import time
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

NONE = -1  # no successor, or no contested item


class StateGraph(NamedTuple):
    """Reachable-state graph: a banked layer of states over a set layer.

    State lists are indexed by state id.  Ids are handed out in discovery
    order, so state 0 is the start (0, empty set), but a successor may
    have a smaller id than its state.  ``order`` lists the ids in
    processing order: level by level (level = picks so far), within a
    level by decreasing banked count, then in discovery order.  Every
    successor comes later in ``order`` than its state, so one sweep over
    ``reversed(order)`` computes values.

    ``set_id[s]`` indexes ``taken``, which holds each distinct taken set
    once, as a bitmask, in the order the sets were first reached.
    ``first[s]`` is the slot successor on the manipulator's turns and the
    claim successor otherwise, ``pick[s]`` the pick successor and
    ``item[s]`` the item a non-manipulator is about to take; each is
    NONE where the move does not exist.  The per-picker moves of the set
    layer live only while the build runs.  The graph holds only what the
    build produces; :func:`backward_induction` returns its results.
    """

    banked: list[int]
    set_id: list[int]  # index into taken
    first: list[int]
    pick: list[int]
    item: list[int]
    order: list[int]  # every id once, successors after their states
    taken: list[int]  # per set id: bitmask over item indices
    distinct_sets: int  # distinct taken sets with items still on the table

    @property
    def num_states(self) -> int:
        return len(self.banked)

    @property
    def num_arcs(self) -> int:
        return 2 * len(self.banked) - self.first.count(NONE) - self.pick.count(NONE)


def build_state_graph(instance: Instance, max_states: int = DEFAULT_MAX_STATES) -> StateGraph:
    """Expand every reachable state from (0, empty set).

    ``max_states`` caps the number of states created; the error says how
    far the expansion got.
    """
    m = instance.num_items
    sequence = instance.sequence
    mu = instance.manipulator_turns()
    width = m.bit_length()  # a cursor runs from 0 to m (exhausted)
    field = (1 << width) - 1
    # Per non-manipulator: key shift, ranking and the bit of each ranked
    # item; a sentinel past the end stops every scan at cursor m.
    agents = [
        (width * (a - 1), row + (NONE,), [1 << item for item in row] + [0])
        for a, row in enumerate(instance.profile)
        if a != MANIPULATOR
    ]

    # Set layer.  ``taken`` holds each set's mask by set id.  ``set_ids``
    # maps set size -> {cursor key: set id}; a set of size s is looked up
    # only while levels s - 1 .. s + mu - 1 are expanded, and expanded only
    # at levels s .. s + mu, so its lookup dict is dropped at level s + mu.
    # ``keys`` holds each set's cursor key and ``moves``, per
    # non-manipulator, the successor set id and the item she takes, NONE
    # until first needed.  Both are indexed by set id - ``base`` and lose
    # their prefix as sets fall behind: every set first reached before
    # level L - mu - 1 has fewer than L - mu items, so no level from L on
    # expands it.
    taken = [0]
    set_ids: dict[int, dict[int, int]] = {0: {0: 0}}
    keys = [0]
    moves = [([], []) for _ in agents]
    base = 0
    level_start: list[int] = []  # first set id reached at each level

    # Banked layer.  Every list gets its entry when a state is discovered,
    # so each arc is written once, with its final id.  The buckets of the
    # level being expanded and of the next one map banked count -> {set
    # id: state id}; ``order`` lists the ids bucket by bucket as they are
    # expanded, which is the processing order.
    banked = [0]
    set_id = [0]
    first = [NONE]
    pick = [NONE]
    item = [NONE]
    order: list[int] = []
    buckets: dict[int, dict[int, int]] = {0: {0: 0}}

    def over_cap() -> ResourceLimitError:
        return ResourceLimitError(
            f"state graph exceeds max_states={max_states} at level {level} of {m} "
            f"({len(banked)} states created)"
        )

    for level in range(m + 1):
        level_start.append(len(taken))
        set_ids.pop(level - mu, None)
        if level > mu:
            dead = level_start[level - mu - 1] - base
            base += dead
            del keys[:dead]
            for column in moves:
                del column[0][:dead], column[1][:dead]
        picker = sequence[level] if level < m else MANIPULATOR  # level m expands nothing
        if picker != MANIPULATOR:
            shift, row, _ = agents[picker - 1]
            # Sets reached during this level are appended to the picker's
            # columns as they appear, since a claim successor is expanded
            # at the same level.
            succ_sets, favs = moves[picker - 1]
            missing = len(taken) - base - len(succ_sets)
            succ_sets.extend([NONE] * missing)
            favs.extend([NONE] * missing)
        upcoming: dict[int, dict[int, int]] = {}
        for k in range(min(level, mu), -1, -1):
            bucket = buckets.get(k)
            if bucket is None:
                continue
            order.extend(bucket.values())
            if level == m:
                continue
            if picker == MANIPULATOR:
                # Only this bucket feeds (level + 1, k + 1), and set ids are
                # unique within it, so every slot successor is new.
                target = upcoming[k + 1] = {}
                for sset, sid in bucket.items():
                    succ = len(banked)
                    if succ >= max_states:
                        raise over_cap()
                    target[sset] = first[sid] = succ
                    banked.append(k + 1)
                    set_id.append(sset)
                    first.append(NONE)
                    pick.append(NONE)
                    item.append(NONE)
                continue

            # Every set in this bucket has level - k items.
            grown = set_ids.get(level - k + 1)
            if grown is None:
                grown = set_ids[level - k + 1] = {}
            target = upcoming[k] = {}
            if k:
                # The claim bucket (level, k - 1) is expanded right after
                # this one, so its new states land there in time.
                claims = buckets.get(k - 1)
                if claims is None:
                    claims = buckets[k - 1] = {}
            for sset, sid in bucket.items():
                slot = sset - base
                succ_set = succ_sets[slot]
                if succ_set == NONE:
                    key = keys[slot]
                    fav = row[key >> shift & field]
                    new_mask = taken[sset] | 1 << fav
                    new_key = key
                    # Inline bitmask scan rather than core.greedy_pick: this
                    # is the hot loop of the build, and it moves several
                    # cursors.
                    for agent_shift, ranking, bits in agents:
                        cursor = key >> agent_shift & field
                        if ranking[cursor] == fav:
                            moved = cursor + 1
                            while new_mask & bits[moved]:
                                moved += 1
                            new_key += moved - cursor << agent_shift
                    succ_set = grown.get(new_key)
                    if succ_set is None:
                        succ_set = grown[new_key] = len(taken)
                        keys.append(new_key)
                        taken.append(new_mask)
                        succ_sets.append(NONE)
                        favs.append(NONE)
                    succ_sets[slot] = succ_set
                    favs[slot] = fav
                else:
                    fav = favs[slot]
                if k:
                    succ = claims.get(succ_set)
                    if succ is None:
                        succ = len(banked)
                        if succ >= max_states:
                            raise over_cap()
                        claims[succ_set] = succ
                        banked.append(k - 1)
                        set_id.append(succ_set)
                        first.append(NONE)
                        pick.append(NONE)
                        item.append(NONE)
                    first[sid] = succ
                succ = target.get(succ_set)
                if succ is None:
                    succ = len(banked)
                    if succ >= max_states:
                        raise over_cap()
                    target[succ_set] = succ
                    banked.append(k)
                    set_id.append(succ_set)
                    first.append(NONE)
                    pick.append(NONE)
                    item.append(NONE)
                pick[sid] = succ
                item[sid] = fav
        buckets = upcoming

    # The spent position (every item identified) is not a picking position;
    # the closed-form caps count sets where someone can still move, so it
    # stays out of distinct_sets.  It still appears in taken.
    distinct = len(taken) - ((1 << m) - 1 in taken)
    return StateGraph(banked, set_id, first, pick, item, order, taken, distinct_sets=distinct)


def backward_induction(graph: StateGraph, utilities: tuple[int, ...]) -> tuple[int, list[int]]:
    """Return the root value and each state's chosen successor.

    ``choices[s]`` is the successor an optimal play moves to from state
    s, NONE at the end of the sequence.

    ``values[s]`` is minus the utility the other agents still take from
    s on: a pick arc costs the picked item, claim and slot arcs cost
    nothing, and terminal states are worth 0, because the manipulator's
    banked picks grab every leftover at the end of the sequence.  This
    differs from her own utility from s on by sum(u) - u(taken set), a
    constant per state, so the argmax is the same, and the root value is
    sum(u) + values[0].  Ties between claiming and letting an agent pick
    go to the claim, which keeps the recovered ranking deterministic.
    """
    first, pick, item = graph.first, graph.pick, graph.item
    size = graph.num_states
    values = [0] * size
    choices = [NONE] * size
    for sid in reversed(graph.order):
        succ = pick[sid]
        claim = first[sid]
        if succ != NONE:
            best = values[succ] - utilities[item[sid]]
            if claim != NONE and values[claim] >= best:
                best = values[claim]
                succ = claim
        elif claim != NONE:
            succ = claim
            best = values[claim]
        else:
            continue
        values[sid] = best
        choices[sid] = succ
    return sum(utilities) + values[0], choices


def _recover_ranking(
    graph: StateGraph, choices: list[int], instance: Instance
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Read an optimal report off the chosen successors.

    Claimed items fill the manipulator's pick turns in claim order; banked
    picks still unresolved at the end are spent on the leftovers in
    truthful order.  Everything she does not pick is appended in truthful
    order, which cannot change the outcome for her.
    """
    claimed: list[int] = []
    sid = 0
    while choices[sid] != NONE:
        succ = choices[sid]
        if succ == graph.first[sid] and graph.item[sid] != NONE:
            claimed.append(graph.item[sid])
        sid = succ
    final = graph.taken[graph.set_id[sid]]
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

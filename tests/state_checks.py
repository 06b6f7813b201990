"""Checks on the DP's state graph, written apart from the package.

Every reachable taken set must be the union of the ranking prefixes that
the non-manipulators have scanned past.  The cursors here are scanned
from each set's bitmask, not through ``core.greedy_pick`` or the build's
packed cursor keys, so these checks share no code with what they check.
"""

from seqalloc import BoundViolationError, profile_metrics
from seqalloc.core import MANIPULATOR
from seqalloc.dp import NONE


def taken_sets(graph) -> set[frozenset[int]]:
    """All distinct taken sets of the graph, as item-index sets."""
    return {frozenset(item for item in range(mask.bit_length()) if mask >> item & 1) for mask in graph.taken}


def cursors(instance, mask: int) -> tuple[int, ...]:
    """Each non-manipulator's cursor under ``mask``, in agent order.

    A cursor is the position of her favourite item outside the mask in
    her ranking, or m once every item is taken.
    """
    return tuple(
        next((pos for pos, item in enumerate(row) if not mask >> item & 1), len(row))
        for agent, row in enumerate(instance.profile)
        if agent != MANIPULATOR
    )


def verify_state_invariants(instance, graph) -> int:
    """Check the structural invariants of every stored state.

    Each taken set must equal the union, over the non-manipulators, of
    the ranking prefix strictly above the agent's favourite remaining
    item; the favourites' ranks may pairwise differ by at most
    range_max - 1; and every taken item outside the second agent's
    scanned prefix must sit within 2 * range_max positions below her
    favourite.  The invariants depend on the taken set alone, so each
    set is checked once, at the first state over it in id order; that
    state's banked count k names the set in errors.  Returns the number
    of states covered, 0 without non-manipulators (every taken set must
    then be empty); raises BoundViolationError on the first violation.
    """
    m = instance.num_items
    range_max = profile_metrics(instance).range_max
    rows = [row for agent, row in enumerate(instance.profile) if agent != MANIPULATOR]

    checked = [False] * len(graph.taken)
    for banked, sset in zip(graph.banked, graph.set_id):
        if checked[sset]:
            continue
        checked[sset] = True
        taken = graph.taken[sset]
        positions = cursors(instance, taken)
        union = 0
        for row, pos in zip(rows, positions):
            for item in row[:pos]:
                union |= 1 << item
        if union != taken:
            raise BoundViolationError(
                f"state (k={banked}, taken={taken:b}) is not a union of scanned prefixes"
            )
        # (agent, 1-based rank of her favourite) for each agent with one left
        favourites = [(agent, pos + 1) for agent, pos in enumerate(positions, start=1) if pos < m]
        if favourites:
            ranks = [rank for _, rank in favourites]
            if max(ranks) - min(ranks) > range_max - 1:
                raise BoundViolationError(
                    f"favourite ranks {ranks} spread wider than range_max - 1 = {range_max - 1}"
                )
            # Her ranking from the favourite on: every taken item there
            # lies outside her scanned prefix.
            agent, rank = favourites[0]
            for item_rank, item in enumerate(instance.profile[agent][rank - 1 :], start=rank):
                if taken >> item & 1 and not rank + 1 <= item_rank <= rank + 2 * range_max:
                    raise BoundViolationError(
                        f"taken item {item} at rank {item_rank} leaves the window "
                        f"({rank + 1}..{rank + 2 * range_max}) of agent {agent}"
                    )
    return graph.num_states if rows else 0


def assert_set_layer(graph, instance) -> None:
    """Set ids and masks are in bijection, and every state's mask is its own.

    Each set's mask must pass :func:`verify_state_invariants`, and every
    arc must add exactly its item to the mask.
    """
    taken = graph.taken
    assert len(set(taken)) == len(taken)
    assert sorted(set(graph.set_id)) == list(range(len(taken)))
    full = (1 << instance.num_items) - 1
    assert graph.distinct_sets == len(taken) - (full in taken)
    verify_state_invariants(instance, graph)
    for sid, sset in enumerate(graph.set_id):
        mask = taken[sset]
        grown = mask | 1 << graph.item[sid] if graph.item[sid] != NONE else mask
        if graph.first[sid] != NONE:
            assert taken[graph.set_id[graph.first[sid]]] == grown
        if graph.pick[sid] != NONE:
            assert taken[graph.set_id[graph.pick[sid]]] == grown != mask

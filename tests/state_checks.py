"""Checks on the DP's state graph, written apart from the package.

Every reachable taken set must be the union of the ranking prefixes that
the non-manipulators have scanned past.  The cursors here are scanned
from each set's bitmask, not through ``core.greedy_pick`` or the build's
rank-order masks, and the reachable states are recounted by a plain
breadth-first search over (k, frozenset) states, so these checks share
no code with what they check.
"""

from collections import deque

from seqalloc import BoundViolationError, profile_metrics
from seqalloc.core import MANIPULATOR


def bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    return [index for index in range(mask.bit_length()) if mask >> index & 1]


def taken_sets(graph) -> set[frozenset[int]]:
    """All distinct taken sets of the graph, as item-index sets."""
    return {frozenset(bits(mask)) for mask in graph.taken}


def states(graph) -> list[tuple[int, int]]:
    """Every state as (banked count, set id), by set id and then k."""
    return [(k, sid) for sid, ks in enumerate(graph.banked) for k in bits(ks)]


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
    set is checked once, at its first state in (set id, k) order; that
    state's banked count k names the set in errors.  Returns the number
    of states covered, 0 without non-manipulators (every taken set must
    then be empty); raises BoundViolationError on the first violation.
    """
    m = instance.num_items
    range_max = profile_metrics(instance).range_max
    rows = [row for agent, row in enumerate(instance.profile) if agent != MANIPULATOR]

    for taken, ks in zip(graph.taken, graph.banked):
        banked = bits(ks)[0]
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
    return len(states(graph)) if rows else 0


def assert_set_layer(graph, instance) -> None:
    """Set ids and masks are in bijection, and every move's mask is its own.

    Every set carries a state, each set's mask must pass
    :func:`verify_state_invariants`, and every move must add exactly its
    item to the mask, at k the set reaches, with one mover per k.
    """
    taken = graph.taken
    assert len(set(taken)) == len(taken)
    assert all(graph.banked)
    full = (1 << instance.num_items) - 1
    assert graph.distinct_sets == len(taken) - (full in taken)
    verify_state_invariants(instance, graph)
    for sid, mask in enumerate(taken):
        covered = 0
        for moving, succ, item in graph.moves[sid]:
            assert moving and not moving & ~graph.banked[sid] and not moving & covered
            covered |= moving
            assert taken[succ] == mask | 1 << item != mask


def assert_set_order(graph) -> None:
    """Set ids are a topological order from the root.

    Set 0 is the empty set with the start state k = 0, sizes never
    decrease, and every move goes to a later set one item larger.
    """
    assert graph.taken[0] == 0 and graph.banked[0] & 1
    sizes = [len(bits(mask)) for mask in graph.taken]
    assert sizes == sorted(sizes)
    for sid, moves in enumerate(graph.moves):
        for _, succ, _ in moves:
            assert succ > sid and sizes[succ] == sizes[sid] + 1, (sid, succ)


def reachable_states(instance) -> tuple[set[tuple[int, frozenset[int]]], int]:
    """Every state reachable from (0, empty set), and the arcs between them.

    A plain breadth-first search: the manipulator's turn banks a pick; a
    non-manipulator's favourite remaining item is taken by her (k stays)
    or, with k > 0, claimed for a banked pick (k - 1).
    """
    m = instance.num_items
    start = (0, frozenset())
    seen = {start}
    queue = deque([start])
    arcs = 0
    while queue:
        k, taken = queue.popleft()
        if len(taken) + k == m:
            continue
        picker = instance.sequence[len(taken) + k]
        if picker == MANIPULATOR:
            successors = [(k + 1, taken)]
        else:
            favourite = next(item for item in instance.profile[picker] if item not in taken)
            grown = taken | {favourite}
            successors = [(k, grown), (k - 1, grown)] if k else [(k, grown)]
        for state in successors:
            arcs += 1
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return seen, arcs


def assert_matches_oracle(graph, instance) -> None:
    """The graph has exactly the oracle's states, arcs and per-set k."""
    reached, arcs = reachable_states(instance)
    expected: dict[frozenset[int], int] = {}
    for k, taken in reached:
        expected[taken] = expected.get(taken, 0) | 1 << k
    assert graph.num_states == len(reached)
    assert graph.num_arcs == arcs
    assert graph.distinct_sets == sum(1 for taken in expected if len(taken) < instance.num_items)
    assert {frozenset(bits(mask)): ks for mask, ks in zip(graph.taken, graph.banked)} == expected

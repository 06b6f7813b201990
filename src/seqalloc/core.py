"""Sequential allocation instances and the greedy picking protocol.

An instance fixes a set of indivisible items, a set of agents, a picking
sequence, one strict preference ranking per agent, and additive utilities
consistent with the first agent's ranking.  Agent 0 is the manipulator:
every solver in this package searches over the rankings she may report,
while the remaining agents always pick greedily and truthfully (each takes
her most preferred item still available when her turn comes).

Conventions used throughout the package:

* items and agents are referred to by 0-based index; the JSON form also
  carries display names,
* rankings list item indices from most to least preferred,
* ranks are 1-based (rank 1 is the most preferred item),
* utilities are nonnegative integers, strictly decreasing along agent 0's
  truthful ranking, with a total bounded by 2**63 - 1 so downstream
  arithmetic stays in machine-integer range.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

MANIPULATOR = 0

UTILITY_SUM_LIMIT = 2**63 - 1

# Solver budgets.  They live here, beside ResourceLimitError, so that the
# CLI can show them as option defaults without loading the solvers.
DEFAULT_MAX_STATES = 2_000_000
DEFAULT_SUBSET_BUDGET = 5_000_000
DEFAULT_RANKING_ITEM_LIMIT = 8


class InvalidInstanceError(ValueError):
    """Instance data violates a structural invariant.

    ``code`` is a stable machine-readable identifier:

    * ``empty``: no items or no agents,
    * ``length-mismatch``: sequence/profile/utilities length disagrees
      with the item and agent counts,
    * ``sequence-entry``: sequence entry is not a valid agent index,
    * ``non-permutation``: a profile row (or reported ranking) is not a
      permutation of the item indices,
    * ``non-strict-utilities``: utilities tie or increase along agent 0's
      ranking,
    * ``negative-utility``: a utility is negative,
    * ``utility-overflow``: utilities sum past the signed 64-bit limit,
    * ``duplicate-name``: item or agent display names repeat,
    * ``malformed``: JSON document does not have the expected shape.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ResourceLimitError(RuntimeError):
    """A solver or builder exceeded one of its configured budgets."""


class _Record:
    """Immutable record whose fields are the subclass's ``__slots__``.

    ``__init__`` sets each field once through ``object.__setattr__``;
    afterwards assignment and deletion raise.  Records compare, hash and
    print field by field, in slot order.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Instance(_Record):
    """One sequential allocation instance.

    ``sequence[t]`` is the agent picking at time step t (0-based here;
    reports and logs use 1-based steps).  ``profile[a]`` is agent a's
    truthful ranking.  ``utilities[i]`` is the manipulator's utility for
    item i.  Construction validates all invariants; instances are
    immutable and compare equal field by field.
    """

    __slots__ = ("items", "agents", "sequence", "profile", "utilities")

    items: tuple[str, ...]
    agents: tuple[str, ...]
    sequence: tuple[int, ...]
    profile: tuple[tuple[int, ...], ...]
    utilities: tuple[int, ...]

    def __init__(self, items, agents, sequence, profile, utilities):
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "agents", tuple(agents))
        object.__setattr__(self, "sequence", tuple(sequence))
        object.__setattr__(self, "profile", tuple(tuple(row) for row in profile))
        object.__setattr__(self, "utilities", tuple(utilities))
        _check_instance(self)

    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def manipulator_turns(self) -> int:
        return self.sequence.count(MANIPULATOR)

    def to_json(self) -> str:
        doc = {
            "items": list(self.items),
            "agents": list(self.agents),
            "sequence": list(self.sequence),
            "profile": [list(row) for row in self.profile],
            "utilities": list(self.utilities),
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        try:
            doc = json.loads(text)
        # Nesting too deep for the parser raises RecursionError, not a decode error.
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InvalidInstanceError("malformed", f"instance is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidInstanceError("malformed", "instance JSON must be an object")
        fields = ("items", "agents", "sequence", "profile", "utilities")
        missing = [key for key in fields if key not in doc]
        if missing:
            raise InvalidInstanceError("malformed", f"instance JSON lacks keys: {', '.join(missing)}")
        # tuple() would split a string into characters, so only arrays pass.
        for key in fields:
            if not isinstance(doc[key], list):
                raise InvalidInstanceError("malformed", f"instance field {key!r} must be a JSON array")
        for a, row in enumerate(doc["profile"]):
            if not isinstance(row, list):
                raise InvalidInstanceError("malformed", f"profile row {a} must be a JSON array")
        try:
            return cls(**{key: doc[key] for key in fields})
        except TypeError as exc:
            raise InvalidInstanceError("malformed", f"instance JSON has a wrong field shape: {exc}") from exc


def _check_instance(inst: Instance) -> None:
    m = len(inst.items)
    n = len(inst.agents)
    if m == 0 or n == 0:
        raise InvalidInstanceError("empty", "instance needs at least one item and one agent")
    for name in inst.items + inst.agents:
        if not isinstance(name, str) or not name:
            raise InvalidInstanceError("malformed", "item and agent names must be nonempty strings")
    if len(set(inst.items)) != m:
        raise InvalidInstanceError("duplicate-name", "item names must be unique")
    if len(set(inst.agents)) != n:
        raise InvalidInstanceError("duplicate-name", "agent names must be unique")

    if len(inst.sequence) != m:
        raise InvalidInstanceError(
            "length-mismatch",
            f"sequence has {len(inst.sequence)} entries for {m} items",
        )
    for entry in inst.sequence:
        if not isinstance(entry, int) or isinstance(entry, bool) or not 0 <= entry < n:
            raise InvalidInstanceError("sequence-entry", f"sequence entry {entry!r} is not an agent index")

    if len(inst.profile) != n:
        raise InvalidInstanceError(
            "length-mismatch",
            f"profile has {len(inst.profile)} rows for {n} agents",
        )
    for a, row in enumerate(inst.profile):
        _require_permutation(row, m, f"profile row {a}")

    if len(inst.utilities) != m:
        raise InvalidInstanceError(
            "length-mismatch",
            f"utilities list {len(inst.utilities)} values for {m} items",
        )
    for u in inst.utilities:
        if not isinstance(u, int) or isinstance(u, bool):
            raise InvalidInstanceError("malformed", f"utility {u!r} is not an integer")
        if u < 0:
            raise InvalidInstanceError("negative-utility", f"utility {u} is negative")
    if sum(inst.utilities) > UTILITY_SUM_LIMIT:
        raise InvalidInstanceError("utility-overflow", "utilities sum past the signed 64-bit limit")
    top_row = inst.profile[MANIPULATOR]
    for pos in range(m - 1):
        if inst.utilities[top_row[pos]] <= inst.utilities[top_row[pos + 1]]:
            raise InvalidInstanceError(
                "non-strict-utilities",
                "utilities must strictly decrease along the manipulator's ranking "
                f"(violated between items {top_row[pos]} and {top_row[pos + 1]})",
            )


def _require_permutation(row: Sequence[int], m: int, label: str) -> None:
    if len(row) != m:
        raise InvalidInstanceError("non-permutation", f"{label} has {len(row)} entries for {m} items")
    seen = [False] * m
    for item in row:
        if not isinstance(item, int) or isinstance(item, bool) or not 0 <= item < m or seen[item]:
            raise InvalidInstanceError("non-permutation", f"{label} is not a permutation of 0..{m - 1}")
        seen[item] = True


class Allocation(NamedTuple):
    """Outcome of one full run of the picking protocol.

    ``bundles[a]`` is the set of items agent a ended up with and
    ``pick_log`` records (step, agent, item) triples with 1-based steps.
    """

    bundles: tuple[frozenset[int], ...]
    pick_log: tuple[tuple[int, int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "bundles": [sorted(bundle) for bundle in self.bundles],
            "pick_log": [list(entry) for entry in self.pick_log],
        }


def greedy_pick(row: Sequence[int], cursors: list[int], agent: int, taken: list[bool]) -> int:
    """One greedy pick: ``agent`` takes her favourite item still on the table.

    ``row`` is the ranking she picks along and ``cursors[agent]`` her
    position in it; the cursor moves past taken items, lands one beyond
    the picked item, and the item is marked taken.  Every list-based
    replay of the protocol in the package picks through this function.
    """
    cursor = cursors[agent]
    while taken[row[cursor]]:
        cursor += 1
    cursors[agent] = cursor + 1
    item = row[cursor]
    taken[item] = True
    return item


def simulate(instance: Instance, reported_ranking: Sequence[int] | None = None) -> Allocation:
    """Run the picking protocol and return who got what.

    The manipulator picks along ``reported_ranking`` when one is given and
    along her truthful ranking otherwise; everyone else is truthful.  The
    protocol is deterministic, so equal inputs always give equal outputs.
    """
    m = instance.num_items
    n = instance.num_agents
    rows: list[Sequence[int]] = list(instance.profile)
    if reported_ranking is not None:
        ranking = tuple(reported_ranking)
        _require_permutation(ranking, m, "reported ranking")
        rows[MANIPULATOR] = ranking

    taken = [False] * m
    cursors = [0] * n
    bundles: list[list[int]] = [[] for _ in range(n)]
    log = []
    for step, agent in enumerate(instance.sequence, start=1):
        item = greedy_pick(rows[agent], cursors, agent, taken)
        bundles[agent].append(item)
        log.append((step, agent, item))
    return Allocation(
        bundles=tuple(frozenset(bundle) for bundle in bundles),
        pick_log=tuple(log),
    )


def bundle_utility(instance: Instance, bundle: Iterable[int]) -> int:
    """Manipulator utility of a bundle (utilities are additive)."""
    return sum(instance.utilities[item] for item in bundle)


def truthful_utility(instance: Instance) -> int:
    """Utility the manipulator collects when everyone reports truthfully."""
    return bundle_utility(instance, simulate(instance).bundles[MANIPULATOR])


class ProfileMetrics(NamedTuple):
    """Positional summary of a preference profile: the paper's rg^max.

    ``range_max`` is the largest number of positions an item spans
    across the non-manipulators' rankings, its last position minus its
    first plus one; with a single agent there are none, which it
    signals with None.  The state-set caps of
    :func:`seqalloc.dp.state_set_bounds` read it.
    """

    range_max: int | None


def profile_metrics(instance: Instance) -> ProfileMetrics:
    others = instance.profile[1:]  # the non-manipulators' rankings
    if not others:
        return ProfileMetrics(range_max=None)
    # Lowest and highest position of each item across the other agents.
    low = [0] * instance.num_items
    for pos, item in enumerate(others[0]):
        low[item] = pos
    high = low.copy()
    for row in others[1:]:
        for pos, item in enumerate(row):
            if pos < low[item]:
                low[item] = pos
            elif pos > high[item]:
                high[item] = pos
    return ProfileMetrics(range_max=max(top - bottom for top, bottom in zip(high, low)) + 1)


class ManipulationResult(NamedTuple):
    """Best response found by one of the solvers.

    ``ranking`` is the report achieving ``optimal_utility``; replaying it
    with :func:`simulate` yields exactly ``bundle`` for the manipulator.
    ``stats`` carries algorithm-specific counters, always including
    ``algorithm`` and ``elapsed_ms``.
    """

    optimal_utility: int
    ranking: tuple[int, ...]
    bundle: frozenset[int]
    stats: dict

    def to_json(self, timings: bool = False) -> str:
        stats = dict(self.stats)
        algorithm = stats.pop("algorithm")
        if not timings:
            stats["elapsed_ms"] = 0.0
        doc = {
            "algorithm": algorithm,
            "optimal_utility": self.optimal_utility,
            "ranking": list(self.ranking),
            "bundle": sorted(self.bundle),
            "stats": stats,
        }
        return json.dumps(doc, indent=2) + "\n"

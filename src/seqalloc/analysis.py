"""Diagnostics: utility-ratio bound, state-count bounds, sweeps.

Two proven facts are checked empirically here on every instance thrown
at the solvers: optimal manipulation earns strictly less than twice the
truthful utility (whenever that is positive), and the number of
distinct taken sets in the dynamic program stays under each applicable
closed-form cap.  Neither can fail on correct code, so a violation
signals an implementation bug and raises instead of returning quietly.
Ratios are exact fractions; no float ever decides a verdict.
"""

from __future__ import annotations

import io
import itertools
from fractions import Fraction
from typing import NamedTuple

from .core import (
    Instance,
    InvalidInstanceError,
    ManipulationResult,
    ResourceLimitError,
    profile_metrics,
    truthful_utility,
)
from .dp import StateGraph, solve_dp, state_set_bounds


class BoundViolationError(RuntimeError):
    """A proven bound failed on a concrete instance; something is buggy."""


class BoundReport(NamedTuple):
    """Joint report of the ratio check and the state-count check.

    ``ratio`` is exact (optimal over truthful) and None when the
    truthful utility is zero, in which case the ratio bound is vacuous.
    ``bound_ok`` is True on every report, since a violated bound raises
    instead of returning one.  ``bounds``/``slack`` map
    bound names (m_pow, mu, rg_n, rg) to values, None where a bound
    needs more agents than the instance has.
    """

    u_truthful: int
    u_optimal: int
    ratio: Fraction | None
    bound_ok: bool
    vacuous: bool
    states: int
    distinct_sets: int
    bounds: dict
    slack: dict

    def to_json_dict(self) -> dict:
        return {
            "u_truthful": self.u_truthful,
            "u_optimal": self.u_optimal,
            "ratio": str(self.ratio) if self.ratio is not None else None,
            "bound_ok": self.bound_ok,
            "vacuous": self.vacuous,
            "states": self.states,
            "distinct_sets": self.distinct_sets,
            "bounds": dict(self.bounds),
            "slack": dict(self.slack),
        }


def check_state_bounds(instance: Instance, **solver_kwargs) -> BoundReport:
    """Solve and verify both proven facts; raise BoundViolationError on either.

    Optimal manipulation must earn less than twice the truthful utility
    (vacuous at truthful 0), and the distinct taken sets must stay under
    every applicable cap.
    """
    result = solve_dp(instance, **solver_kwargs)
    u_truthful = truthful_utility(instance)
    u_optimal = result.optimal_utility
    vacuous = u_truthful == 0
    if not vacuous and u_optimal >= 2 * u_truthful:
        raise BoundViolationError(f"optimal utility {u_optimal} reaches twice the truthful {u_truthful}")
    bounds = {
        "m_pow": result.stats["bound_m_pow"],
        "mu": result.stats["bound_mu"],
        "rg_n": result.stats["bound_rg_n"],
        "rg": result.stats["bound_rg"],
    }
    distinct = result.stats["distinct_sets"]
    for name, cap in bounds.items():
        if cap is not None and distinct > cap:
            raise BoundViolationError(f"{distinct} distinct taken sets exceed bound {name} = {cap}")
    return BoundReport(
        u_truthful=u_truthful,
        u_optimal=u_optimal,
        ratio=None if vacuous else Fraction(u_optimal, u_truthful),
        bound_ok=True,
        vacuous=vacuous,
        states=result.stats["states"],
        distinct_sets=distinct,
        bounds=bounds,
        slack={name: None if cap is None else cap - distinct for name, cap in bounds.items()},
    )


def verify_state_invariants(instance: Instance, graph: StateGraph) -> int:
    """Check the structural invariants of every stored state.

    Each taken set must equal the union, over the non-manipulators, of
    the ranking prefix strictly above the agent's favourite remaining
    item; the favourites' ranks may pairwise differ by at most
    range_max - 1; and every taken item outside the second agent's
    scanned prefix must sit within 2 * range_max positions below her
    favourite.  The invariants depend on the taken set alone, so each
    set is checked once, at the first state over it in id order; that
    state's banked count k names the set in errors.  Returns the number
    of states covered (every state); raises BoundViolationError on the
    first violation.
    """
    n = instance.num_agents
    if n < 2:
        return 0
    m = instance.num_items
    metrics = profile_metrics(instance)
    range_max = metrics.range_max

    prefix_masks = []
    for a in range(1, n):
        masks = [0]
        for item in instance.profile[a]:
            masks.append(masks[-1] | 1 << item)
        prefix_masks.append(masks)

    checked = [False] * len(graph.taken)
    for banked, sset in zip(graph.banked, graph.set_id):
        if checked[sset]:
            continue
        checked[sset] = True
        taken = graph.taken[sset]
        favourites = []
        union = 0
        for a in range(1, n):
            row = instance.profile[a]
            # Scanned from the mask here, not through core.greedy_pick: this
            # checks the DP's states, so it must not share the protocol code.
            pos = 0
            while pos < m and taken >> row[pos] & 1:
                pos += 1
            if pos < m:
                favourites.append((a, row[pos], pos + 1))
            union |= prefix_masks[a - 1][pos]
        if union != taken:
            raise BoundViolationError(
                f"state (k={banked}, taken={taken:b}) is not a union of scanned prefixes"
            )
        if favourites:
            ranks = [rank for _, _, rank in favourites]
            if max(ranks) - min(ranks) > range_max - 1:
                raise BoundViolationError(
                    f"favourite ranks {ranks} spread wider than range_max - 1 = {range_max - 1}"
                )
            agent, _, rank = favourites[0]
            scanned = prefix_masks[agent - 1][rank - 1]
            outside = taken & ~scanned
            while outside:
                low = outside & -outside
                item = low.bit_length() - 1
                outside ^= low
                item_rank = metrics.rank[agent][item]
                if not rank + 1 <= item_rank <= rank + 2 * range_max:
                    raise BoundViolationError(
                        f"taken item {item} at rank {item_rank} leaves the window "
                        f"({rank + 1}..{rank + 2 * range_max}) of agent {agent}"
                    )
    return graph.num_states


class SweepConfig(NamedTuple):
    """Parameter grid for :func:`bench_sweep`.

    The grid is the cartesian product of the fields, iterated in field
    order (agents, items, mu, range target, seeds, algorithms).  None
    entries leave the corresponding generator knob unconstrained.
    """

    agents: tuple[int, ...]
    items: tuple[int, ...]
    mu_manipulator: tuple = (None,)
    target_range_max: tuple = (None,)
    seeds: tuple[int, ...] = (1,)
    algorithms: tuple[str, ...] = ("dp",)

    @classmethod
    def from_json_dict(cls, doc: object) -> "SweepConfig":
        """Build a config from parsed JSON, rejecting any other shape.

        ``doc`` must be an object with list fields: agents, items and
        seeds hold ints, mu_manipulator and target_range_max ints or
        nulls, algorithms strings.  Anything else raises
        InvalidInstanceError with code ``malformed``.
        """
        if not isinstance(doc, dict):
            raise InvalidInstanceError("malformed", "sweep config must be a JSON object")
        unknown = set(doc) - set(_CONFIG_FIELDS)
        if unknown:
            raise InvalidInstanceError("malformed", f"unknown sweep config keys: {sorted(unknown)}")
        if "agents" not in doc or "items" not in doc:
            raise InvalidInstanceError("malformed", "sweep config needs 'agents' and 'items' lists")
        fields = {}
        for name, (kind, accepts) in _CONFIG_FIELDS.items():
            if name not in doc:
                continue
            values = doc[name]
            if not isinstance(values, list) or not all(accepts(value) for value in values):
                raise InvalidInstanceError("malformed", f"sweep config field {name!r} must be a list of {kind}")
            fields[name] = tuple(values)
        return cls(**fields)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_or_null(value: object) -> bool:
    return value is None or _is_int(value)


# Sweep config field -> (element description, element check).  Absent
# fields take the SweepConfig defaults.
_CONFIG_FIELDS = {
    "agents": ("ints", _is_int),
    "items": ("ints", _is_int),
    "mu_manipulator": ("ints or nulls", _is_int_or_null),
    "target_range_max": ("ints or nulls", _is_int_or_null),
    "seeds": ("ints", _is_int),
    "algorithms": ("strings", lambda value: isinstance(value, str)),
}


SWEEP_COLUMNS = [
    "n",
    "m",
    "mu_manipulator",
    "target_range_max",
    "seed",
    "algorithm",
    "status",
    "optimal_utility",
    "truthful_utility",
    "ratio",
    "states",
    "distinct_sets",
    "arcs",
    "bound_m_pow",
    "bound_mu",
    "bound_rg_n",
    "bound_rg",
    "elapsed_ms",
]


# The sweep alone needs the exhaustive solvers and the generators, so they
# are imported where used and ``check`` loads neither.
def _solve_subset(instance: Instance) -> ManipulationResult:
    from .achievability import solve_subset_enum

    return solve_subset_enum(instance)


def _solve_brute(instance: Instance) -> ManipulationResult:
    from .achievability import solve_bruteforce_rankings

    return solve_bruteforce_rankings(instance)


_SOLVERS = {
    "dp": lambda instance: solve_dp(instance),
    "subset": _solve_subset,
    "brute": _solve_brute,
}


def _sweep_row(point: tuple) -> dict:
    from .generators import gen_correlated, gen_random

    n, m, mu, target, seed, algorithm = point
    row = {column: None for column in SWEEP_COLUMNS}
    row.update({"n": n, "m": m, "target_range_max": target, "seed": seed, "algorithm": algorithm})
    try:
        if target is None:
            instance, _ = gen_random(seed, n, m, mu_manipulator=mu)
        else:
            instance, _ = gen_correlated(seed, n, m, target, mu_manipulator=mu)
        row["mu_manipulator"] = instance.manipulator_turns()
        solver = _SOLVERS.get(algorithm)
        if solver is None:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        result = solver(instance)
        u_truthful = truthful_utility(instance)
        row["optimal_utility"] = result.optimal_utility
        row["truthful_utility"] = u_truthful
        row["ratio"] = str(Fraction(result.optimal_utility, u_truthful)) if u_truthful else None
        bounds = state_set_bounds(m, n, row["mu_manipulator"], profile_metrics(instance).range_max)
        row["bound_m_pow"] = bounds["m_pow"]
        row["bound_mu"] = bounds["mu"]
        row["bound_rg_n"] = bounds["rg_n"]
        row["bound_rg"] = bounds["rg"]
        for key in ("states", "distinct_sets", "arcs"):
            row[key] = result.stats.get(key)
        row["elapsed_ms"] = result.stats["elapsed_ms"]
        row["status"] = "ok"
    except InvalidInstanceError as exc:
        row["status"] = f"invalid:{exc.code}"
    except ResourceLimitError:
        row["status"] = "resource-limit"
    except RuntimeError as exc:
        row["status"] = f"internal:{exc}"
    except ValueError as exc:
        row["status"] = f"error:{exc}"
    return row


def run_sweep(config: SweepConfig) -> list[dict]:
    """Run the whole grid; one result dict per point, in grid order.

    Failures never abort the sweep; they land in the row's status.
    """
    grid = itertools.product(
        config.agents,
        config.items,
        config.mu_manipulator,
        config.target_range_max,
        config.seeds,
        config.algorithms,
    )
    return [_sweep_row(point) for point in grid]


def sweep_to_csv(rows: list[dict], timings: bool = False) -> str:
    """Render sweep rows as CSV; timings are zeroed unless requested."""
    import csv

    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        rendered = dict(row)
        if not timings:
            rendered["elapsed_ms"] = 0.0 if row["status"] == "ok" else None
        rendered = {key: ("" if value is None else value) for key, value in rendered.items()}
        writer.writerow(rendered)
    return out.getvalue()


def bench_sweep(config: SweepConfig, timings: bool = False) -> str:
    """Sweep the grid and return the CSV report."""
    return sweep_to_csv(run_sweep(config), timings=timings)

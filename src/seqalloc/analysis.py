"""Diagnostics: utility-ratio bound, state-count bounds, sweeps.

Two proven facts are checked empirically here on every instance thrown
at the solvers: optimal manipulation earns strictly less than twice the
truthful utility (whenever that is positive), and the number of
distinct taken sets in the dynamic program stays under each applicable
closed-form cap.  ``check`` and every sweep row run the same check, on
whatever solver produced the result, and for every solver the caps come
from the instance alone through :func:`~seqalloc.dp.state_set_bounds`.
Neither fact can fail on correct code, so a violation signals an
implementation bug and raises instead of returning quietly; a sweep row
reports it as ``internal:<message>``.
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
    solver,
    truthful_utility,
)
from .dp import solve_dp, state_set_bounds


class BoundViolationError(RuntimeError):
    """A proven bound failed on a concrete instance; something is buggy."""


class BoundReport(NamedTuple):
    """Joint report of the ratio check and the state-count check.

    ``ratio`` is exact (optimal over truthful) and None when the
    truthful utility is zero, in which case the ratio bound is vacuous.
    ``bound_ok`` is True on every report, since a violated bound raises
    instead of returning one.  ``bounds``/``slack`` map
    bound names (m_pow, mu, rg_n, rg) to values, None where a bound
    needs more agents than the instance has.  ``states``,
    ``distinct_sets`` and every slack are None for a solver that builds
    no state graph.
    """

    u_truthful: int
    u_optimal: int
    ratio: Fraction | None
    bound_ok: bool
    vacuous: bool
    states: int | None
    distinct_sets: int | None
    bounds: dict
    slack: dict

    def to_json_dict(self) -> dict:
        doc = self._asdict()
        doc["ratio"] = None if self.ratio is None else str(self.ratio)
        return doc


def check_state_bounds(instance: Instance, **solver_kwargs) -> BoundReport:
    """Solve and verify both proven facts; raise BoundViolationError on either.

    Optimal manipulation must earn less than twice the truthful utility
    (vacuous at truthful 0), and the distinct taken sets must stay under
    every applicable cap.
    """
    return _proven_facts(instance, solve_dp(instance, **solver_kwargs))


def _proven_facts(instance: Instance, result: ManipulationResult) -> BoundReport:
    """Hold one solver result to both proven facts; raise on either.

    The caps come from the instance through :func:`state_set_bounds`,
    whichever solver produced the result.  A result without
    ``distinct_sets`` has no count to cap.
    """
    u_truthful = truthful_utility(instance)
    u_optimal = result.optimal_utility
    vacuous = u_truthful == 0
    if not vacuous and u_optimal >= 2 * u_truthful:
        raise BoundViolationError(f"optimal utility {u_optimal} reaches twice the truthful {u_truthful}")
    stats = result.stats
    bounds = state_set_bounds(instance)
    distinct = stats.get("distinct_sets")
    if distinct is not None:
        for name, cap in bounds.items():
            if cap is not None and distinct > cap:
                raise BoundViolationError(f"{distinct} distinct taken sets exceed bound {name} = {cap}")
    return BoundReport(
        u_truthful=u_truthful,
        u_optimal=u_optimal,
        ratio=None if vacuous else Fraction(u_optimal, u_truthful),
        bound_ok=True,
        vacuous=vacuous,
        states=stats.get("states"),
        distinct_sets=distinct,
        bounds=bounds,
        slack={
            name: None if cap is None or distinct is None else cap - distinct for name, cap in bounds.items()
        },
    )


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
    *(f"bound_{name}" for name in ("m_pow", "mu", "rg_n", "rg")),
    "elapsed_ms",
]


def _sweep_row(point: tuple) -> dict:
    # Imported here, like the solver, so that ``check`` loads neither.
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
        result = solver(algorithm)(instance)
        report = _proven_facts(instance, result)
        row["optimal_utility"] = report.u_optimal
        row["truthful_utility"] = report.u_truthful
        row["ratio"] = None if report.vacuous else str(report.ratio)
        for name, cap in report.bounds.items():
            row[f"bound_{name}"] = cap
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

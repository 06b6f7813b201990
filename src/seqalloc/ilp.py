"""Integer-programming view of the manipulation problem.

The model assigns every item to exactly one time step through m*m binary
variables x_{i}_{t} (item i picked at step t, both 1-based).  Bijection
rows force one item per step and one step per item.  For every step t
owned by a non-manipulator and every item i, a cover row encodes greedy
behaviour: either i is picked at t, or the picker takes something she
prefers to i at t, or i was picked at an earlier step.  The objective
sums the manipulator's utilities over her steps only.

This module writes and parses the model as LP-format text so it can be
diffed and fed to off-the-shelf MILP solvers; no solver is linked in.
The test suite solves the exported text with an external MILP solver,
which shares nothing with the package's solvers.  It holds the optimum
to the dynamic program's, the feasibility of a target-securing model to
the greedy achievability check, and the feasibility of a pinned protocol
run to the encoding itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import MANIPULATOR, Instance


class GreedyRow(NamedTuple):
    """Cover row for (item, step): x_{item,step} + better-at-step + earlier >= 1."""

    item: int
    step: int
    better: tuple[int, ...]


@dataclass(frozen=True)
class IpModel:
    """Integer program for one instance.  All indices are 1-based.

    ``utilities[i - 1]`` is the objective coefficient of item i at each
    manipulator step.  The 2m bijection rows are implicit (they depend
    only on ``num_items``); ``greedy_rows`` carries the cover rows in
    (step, item) order.
    """

    num_items: int
    utilities: tuple[int, ...]
    manipulator_steps: tuple[int, ...]
    greedy_rows: tuple[GreedyRow, ...]

    @property
    def num_vars(self) -> int:
        return self.num_items * self.num_items

    @property
    def num_eq_rows(self) -> int:
        return 2 * self.num_items

    @property
    def num_greedy_rows(self) -> int:
        return len(self.greedy_rows)


def build_model(instance: Instance) -> IpModel:
    """Encode an instance; emits one greedy row per (non-manipulator step, item)."""
    m = instance.num_items
    manip_steps = tuple(t for t, agent in enumerate(instance.sequence, start=1) if agent == MANIPULATOR)
    rows = []
    for t, agent in enumerate(instance.sequence, start=1):
        if agent == MANIPULATOR:
            continue
        ranking = instance.profile[agent]
        better: dict[int, tuple[int, ...]] = {}
        prefix: list[int] = []
        for item in ranking:
            better[item] = tuple(prefix)
            prefix.append(item)
        for item in range(1, m + 1):
            rows.append(GreedyRow(item, t, tuple(j + 1 for j in better[item - 1])))
    return IpModel(
        num_items=m,
        utilities=instance.utilities,
        manipulator_steps=manip_steps,
        greedy_rows=tuple(rows),
    )


def _var(item: int, step: int) -> str:
    return f"x_{item}_{step}"


def export_lp(model: IpModel) -> str:
    """Serialize to LP-format text, byte-stable for diff-based tests.

    Zero objective coefficients are written out too, so the utilities
    survive a parse/export round trip exactly.
    """
    m = model.num_items
    lines = ["Maximize"]
    terms = [
        f"{model.utilities[item - 1]} {_var(item, step)}"
        for item in range(1, m + 1)
        for step in model.manipulator_steps
    ]
    lines.append(" obj: " + " + ".join(terms) if terms else " obj:")
    lines.append("Subject To")
    for item in range(1, m + 1):
        total = " + ".join(_var(item, step) for step in range(1, m + 1))
        lines.append(f" item_{item}: {total} = 1")
    for step in range(1, m + 1):
        total = " + ".join(_var(item, step) for item in range(1, m + 1))
        lines.append(f" step_{step}: {total} = 1")
    for row in model.greedy_rows:
        terms = [_var(row.item, row.step)]
        terms += [_var(j, row.step) for j in row.better]
        terms += [_var(row.item, earlier) for earlier in range(1, row.step)]
        lines.append(f" greedy_{row.item}_{row.step}: " + " + ".join(terms) + " >= 1")
    lines.append("Binary")
    for item in range(1, m + 1):
        for step in range(1, m + 1):
            lines.append(f" {_var(item, step)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _parse_var(token: str) -> tuple[int, int]:
    parts = token.split("_")
    if len(parts) != 3 or parts[0] != "x":
        raise ValueError(f"unexpected variable name {token!r}")
    return int(parts[1]), int(parts[2])


def parse_lp(text: str) -> IpModel:
    """Rebuild a model from its LP text.  export_lp(parse_lp(s)) == s.

    Only the exact dialect written by :func:`export_lp` is understood;
    anything else raises ValueError.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    try:
        max_at = lines.index("Maximize")
        st_at = lines.index("Subject To")
        bin_at = lines.index("Binary")
        end_at = lines.index("End")
    except ValueError as exc:
        raise ValueError(f"missing LP section: {exc}") from exc
    if not max_at < st_at < bin_at < end_at:
        raise ValueError("LP sections out of order")

    objective = " ".join(lines[max_at + 1 : st_at])
    if not objective.startswith("obj:"):
        raise ValueError("objective must be named obj")
    coefficient: dict[int, int] = {}
    manip_steps: set[int] = set()
    body = objective[len("obj:") :].strip()
    if body:
        for term in body.split(" + "):
            coeff_text, var = term.split()
            item, step = _parse_var(var)
            manip_steps.add(step)
            known = coefficient.get(item)
            if known is not None and known != int(coeff_text):
                raise ValueError(f"item {item} has conflicting objective coefficients")
            coefficient[item] = int(coeff_text)

    m: int | None = None
    greedy_rows: list[GreedyRow] = []
    greedy_steps: set[int] = set()
    for line in lines[st_at + 1 : bin_at]:
        name, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"constraint line {line!r} lacks a name")
        rest = rest.strip()
        is_cover = ">=" in rest
        lhs, _, rhs = rest.partition(">=" if is_cover else "=")
        if rhs.strip() != "1":
            raise ValueError(f"row {name!r} must have right-hand side 1")
        variables = [_parse_var(token) for token in lhs.strip().split(" + ")]
        if name.startswith("item_") or name.startswith("step_"):
            if is_cover:
                raise ValueError(f"row {name!r} must be an equality")
            if m is None:
                m = len(variables)
            elif len(variables) != m:
                raise ValueError(f"row {name!r} has {len(variables)} terms, expected {m}")
            continue
        if not name.startswith("greedy_") or not is_cover:
            raise ValueError(f"unexpected row {name!r}")
        item, step = variables[0]
        better = tuple(i for i, t in variables[1:] if t == step)
        earlier = [t for i, t in variables[1:] if i == item and t != step]
        if len(better) + len(earlier) != len(variables) - 1 or sorted(earlier) != list(range(1, step)):
            raise ValueError(f"row {name!r} is not a greedy cover row")
        greedy_rows.append(GreedyRow(item, step, better))
        greedy_steps.add(step)
    if m is None:
        raise ValueError("LP text lacks bijection rows")

    binaries = lines[bin_at + 1 : end_at]
    if len(binaries) != m * m:
        raise ValueError(f"expected {m * m} binary variables, found {len(binaries)}")

    steps = tuple(t for t in range(1, m + 1) if t not in greedy_steps)
    if manip_steps and set(steps) != manip_steps:
        raise ValueError("objective steps disagree with the greedy rows")
    utilities = tuple(coefficient.get(item, 0) for item in range(1, m + 1))
    return IpModel(
        num_items=m,
        utilities=utilities,
        manipulator_steps=steps,
        greedy_rows=tuple(greedy_rows),
    )


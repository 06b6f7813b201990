"""A second LP writer, kept apart from the package as a byte-for-byte oracle.

It builds every greedy row and every variable name on its own, one
f-string per term, the way ``ilp`` first wrote them.  ``ilp.build_model``
and ``ilp.export_lp`` share tuples and names across rows for speed; the
tests hold them to these plain definitions.
"""

from seqalloc.core import MANIPULATOR
from seqalloc.ilp import GreedyRow, IpModel


def reference_model(instance) -> IpModel:
    """One greedy row per (non-manipulator step, item), each with its own tuple."""
    m = instance.num_items
    rows = []
    for t, agent in enumerate(instance.sequence, start=1):
        if agent == MANIPULATOR:
            continue
        better: dict[int, tuple[int, ...]] = {}
        prefix: list[int] = []
        for item in instance.profile[agent]:
            better[item] = tuple(prefix)
            prefix.append(item)
        for item in range(1, m + 1):
            rows.append(GreedyRow(item, t, tuple(j + 1 for j in better[item - 1])))
    return IpModel(
        num_items=m,
        utilities=instance.utilities,
        manipulator_steps=tuple(t for t, agent in enumerate(instance.sequence, start=1) if agent == MANIPULATOR),
        greedy_rows=tuple(rows),
    )


def _var(item: int, step: int) -> str:
    return f"x_{item}_{step}"


def reference_lp(model: IpModel) -> str:
    """The LP text, every term formatted where it is written."""
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

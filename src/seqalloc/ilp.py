"""Integer-programming view of the manipulation problem.

The model assigns every item to exactly one time step through m*m binary
variables x_{i}_{t} (item i picked at step t, both 1-based).  Bijection
rows force one item per step and one step per item.  For every step t
owned by a non-manipulator and every item i, a cover row encodes greedy
behaviour: either i is picked at t, or the picker takes something she
prefers to i at t, or i was picked at an earlier step.  The objective
sums the manipulator's utilities over her steps only.

This module writes the model as LP-format text so it can be diffed and
fed to off-the-shelf MILP solvers; no solver is linked in.
:func:`export_lp` is the one definition of the dialect: :func:`parse_lp`
reads only the numbers and accepts a text only if re-exporting its model
gives the same bytes.  :data:`MAX_LP_TERMS` caps the text's size, since the
greedy rows hold O(m^3) terms.  Building and writing take time in
proportion to the text's bytes, with the per-term work done by ``str``
and list methods: the model shares each agent's better-item tuples
across her steps, and the writer formats each variable name once and
joins names into rows.  No subcommand reads LP text; :func:`parse_lp`
reads a row's better items one term at a time.
The test suite solves the exported text with an external MILP solver,
which shares nothing with the package's solvers.  It holds the optimum
to the dynamic program's, the feasibility of a target-securing model to
the greedy achievability check, and the feasibility of a pinned protocol
run to the encoding itself.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import MANIPULATOR, Instance, ResourceLimitError

MAX_LP_TERMS = 10_000_000  # variable occurrences in the exported text


class GreedyRow(NamedTuple):
    """Cover row for (item, step): x_{item,step} + better-at-step + earlier >= 1."""

    item: int
    step: int
    better: tuple[int, ...]


class IpModel(NamedTuple):
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
    """Encode an instance; emits one greedy row per (non-manipulator step, item).

    Refuses, before building any row, a model whose LP text would hold
    more than MAX_LP_TERMS variable occurrences: m per manipulator step in
    the objective, 3m^2 in the bijection rows and the Binary section, and
    at each other step t, m rows of 1 + |better| + (t - 1) terms, where
    the |better| sum to m(m - 1)/2.  Each agent's better tuples are built
    once and shared by all of her steps' rows.
    """
    m = instance.num_items
    manip_steps = tuple(t for t, agent in enumerate(instance.sequence, start=1) if agent == MANIPULATOR)
    terms = m * len(manip_steps) + 3 * m * m
    terms += sum(
        m * (m + 1) // 2 + m * (t - 1) for t, agent in enumerate(instance.sequence, start=1) if agent != MANIPULATOR
    )
    if terms > MAX_LP_TERMS:
        raise ResourceLimitError(f"LP text would hold {terms} variable terms > MAX_LP_TERMS={MAX_LP_TERMS}")
    # better[agent][item - 1]: the 1-based items the agent ranks above item.
    better: dict[int, list[tuple[int, ...]]] = {}
    for agent in set(instance.sequence) - {MANIPULATOR}:
        ranked = [item + 1 for item in instance.profile[agent]]
        better[agent] = [()] * m
        for rank, item in enumerate(ranked):
            better[agent][item - 1] = tuple(ranked[:rank])
    rows = [
        GreedyRow(item, t, ahead)
        for t, agent in enumerate(instance.sequence, start=1)
        if agent != MANIPULATOR
        for item, ahead in enumerate(better[agent], start=1)
    ]
    return IpModel(
        num_items=m,
        utilities=instance.utilities,
        manipulator_steps=manip_steps,
        greedy_rows=tuple(rows),
    )


class _Names(dict):
    """A dict that makes each missing value as ``make(key)``, once."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def export_lp(model: IpModel) -> str:
    """Serialize to LP-format text, byte-stable for diff-based tests.

    Zero objective coefficients are written out too, so the utilities
    survive a parse/export round trip exactly.  Each name x_{item}_{step}
    is formatted once: the m x m grid up front, and any other name (only
    a hand-built model with indices outside 1..m writes one) when first
    written.  A greedy row is one join of its own name, its better
    items' names at its step and a prefix of the item's run of names.
    """
    m = model.num_items
    rows = model.greedy_rows
    # runs[item] names x_{item}_1, x_{item}_2, ... up to step m for the
    # items 1..m, or to the last earlier step the item's rows write.
    last = dict.fromkeys(range(1, m + 1), m)
    for item, step, _ in rows:
        if last.get(item, 0) < step - 1:
            last[item] = step - 1
    runs = {item: [f"x_{item}_{step}" for step in range(1, end + 1)] for item, end in last.items()}
    grid = [runs[item][:m] for item in range(1, m + 1)]
    transposed = list(zip(*grid))
    # columns[step][item] is x_{item}_{step}, from the grid or made when first asked for.
    columns = _Names(lambda step: _Names(f"x_{{}}_{step}".format))
    for step, names in enumerate(transposed, start=1):
        columns[step].update(zip(range(1, m + 1), names))
    lines = ["Maximize"]
    terms = [
        f"{model.utilities[item - 1]} {columns[step][item]}"
        for item in range(1, m + 1)
        for step in model.manipulator_steps
    ]
    lines.append(" obj: " + " + ".join(terms) if terms else " obj:")
    lines.append("Subject To")
    lines += [f" item_{item}: {' + '.join(names)} = 1" for item, names in enumerate(grid, start=1)]
    lines += [f" step_{step}: {' + '.join(names)} = 1" for step, names in enumerate(transposed, start=1)]
    for item, step, better in rows:
        column = columns[step]
        terms = [column[item], *map(column.__getitem__, better), *runs.get(item, ())[: max(step - 1, 0)]]
        lines.append(f" greedy_{item}_{step}: {' + '.join(terms)} >= 1")
    lines.append("Binary")
    lines += [" " + "\n ".join(names) for names in grid]
    lines.append("End\n")
    return "\n".join(lines)


def parse_lp(text: str) -> IpModel:
    """Rebuild a model from its LP text.  export_lp(parse_lp(s)) == s.

    Only the numbers are read: m (the count of item rows), the objective
    coefficients and each greedy row's item, step and better items.  The
    text is accepted only if :func:`export_lp` writes it back byte for
    byte, so the dialect has that one definition; anything else raises
    ValueError.  The counts the export depends on are checked against
    the text first, which keeps the re-export within a constant factor
    of the input's length.
    """
    lines = text.split("\n")
    m = sum(line.startswith(" item_") for line in lines)
    greedy = [line for line in lines if line.startswith(" greedy_")]
    # Six more: four section headers, the objective and the empty string
    # after the final newline.
    if m < 1 or len(lines) != 2 * m + len(greedy) + m * m + 6:
        raise ValueError("LP text does not have the line count of an exported model")
    _, _, objective = lines[1].partition(": ")
    coefficients = [int(term.partition(" ")[0]) for term in objective.split(" + ")] if objective else []
    rows = []
    for line in greedy:
        name, _, body = line.partition(": ")
        item, step = (int(part) for part in name[len(" greedy_") :].split("_"))
        terms = body.removesuffix(" >= 1").split(" + ")
        # x_{item}_{step}, then the better items' x_{j}_{step}, then the
        # step - 1 earlier x_{item}_{t}: the export checks every name, but
        # not that the items exist.
        better = tuple(int(term[2:].partition("_")[0]) for term in terms[1 : len(terms) - step + 1])
        if not 1 <= step <= min(m, len(terms)) or not all(1 <= j <= m for j in (item, *better)):
            raise ValueError(f"row {name.strip()!r} is not a greedy cover row over items 1..{m}")
        rows.append(GreedyRow(item, step, better))
    greedy_steps = {row.step for row in rows}
    steps = tuple(t for t in range(1, m + 1) if t not in greedy_steps)
    if len(coefficients) != m * len(steps):
        raise ValueError("objective does not have one term per item and manipulator step")
    utilities = tuple(coefficients[:: len(steps)]) if steps else (0,) * m
    model = IpModel(num_items=m, utilities=utilities, manipulator_steps=steps, greedy_rows=tuple(rows))
    if export_lp(model) != text:
        raise ValueError("LP text is not what export_lp writes for the model it describes")
    return model

from typing import NamedTuple

import pytest

from seqalloc import Instance, gen_random, parse_lp
from seqalloc.rng import stream


@pytest.fixture
def running_example() -> Instance:
    """Four items, three agents, manipulator picks first and last.

    Truthfully the manipulator ends with {i1, i4} worth 6; reporting
    i3 > i2 > i1 > i4 instead earns her {i2, i3} worth 7, the optimum.
    """
    return Instance(
        items=["i1", "i2", "i3", "i4"],
        agents=["a1", "a2", "a3"],
        sequence=[0, 1, 2, 0],
        profile=[
            [0, 1, 2, 3],
            [2, 3, 0, 1],
            [0, 1, 2, 3],
        ],
        utilities=[5, 4, 3, 1],
    )


@pytest.fixture
def running_example_steep(running_example) -> Instance:
    """Same structure with utilities (1000, 999, 998, 0)."""
    return Instance(
        items=running_example.items,
        agents=running_example.agents,
        sequence=running_example.sequence,
        profile=running_example.profile,
        utilities=[1000, 999, 998, 0],
    )


def seeded_instances(count: int, agents=(2, 3, 4), items=(4, 5, 6, 7)):
    """Deterministic stream of small random instances for cross-checks."""
    produced = 0
    seed = 0
    while produced < count:
        seed += 1
        for n in agents:
            for m in items:
                if produced >= count:
                    return
                yield gen_random(seed * 1000 + n * 10 + m, n, m)[0]
                produced += 1


def seeded_targets(instance: Instance, size: int, tag: str):
    """Deterministic pseudo-random target set of the given size."""
    items = list(range(instance.num_items))
    stream(instance.num_items * 7 + size, tag).shuffle(items)
    return frozenset(items[: min(size, instance.num_items)])


class MilpSolution(NamedTuple):
    """Optimum of an LP text: its value and the item (1-based) at each step."""

    value: int
    pick_at_step: dict[int, int]


def milp_solve(lp_text: str, secure=(), pinned=None) -> MilpSolution | None:
    """Solve exported LP text with scipy's HiGHS MILP; None if infeasible.

    A test oracle sharing no code with the package's solvers: it reads
    only the parsed rows, builds the constraint matrix itself and lets
    HiGHS search, with a zero optimality gap so the optimum is exact.
    ``secure`` lists 1-based items the manipulator must hold, one row
    "sum over her steps of x_{i,t} >= 1" each, which turns the model into
    a fixed-target achievability test.  ``pinned`` maps steps to items
    (both 1-based) and fixes those variables to 1 through their bounds.
    scipy is imported here, so a missing scipy fails the calling test.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    model = parse_lp(lp_text)
    m = model.num_items

    def var(item: int, step: int) -> int:
        return (item - 1) * m + step - 1

    cost = np.zeros(m * m)
    for item in range(1, m + 1):
        for step in model.manipulator_steps:
            cost[var(item, step)] = -model.utilities[item - 1]
    rows = []
    for item in range(1, m + 1):
        rows.append([var(item, step) for step in range(1, m + 1)])
    for step in range(1, m + 1):
        rows.append([var(item, step) for item in range(1, m + 1)])
    for row in model.greedy_rows:
        rows.append(
            [var(row.item, row.step)]
            + [var(j, row.step) for j in row.better]
            + [var(row.item, earlier) for earlier in range(1, row.step)]
        )
    for item in secure:
        rows.append([var(item, step) for step in model.manipulator_steps])
    matrix = np.zeros((len(rows), m * m))
    for index, columns in enumerate(rows):
        matrix[index, columns] = 1
    upper = np.full(len(rows), np.inf)
    upper[: 2 * m] = 1
    lower_bounds = np.zeros(m * m)
    for step, item in (pinned or {}).items():
        lower_bounds[var(item, step)] = 1
    result = milp(
        cost,
        constraints=LinearConstraint(matrix, np.ones(len(rows)), upper),
        integrality=np.ones(m * m),
        bounds=Bounds(lower_bounds, 1),
        options={"mip_rel_gap": 0},
    )
    if result.status == 2:
        return None
    assert result.success, result.message
    x = np.rint(result.x).astype(int)
    pick_at_step = {step: item for item in range(1, m + 1) for step in range(1, m + 1) if x[var(item, step)]}
    value = sum(model.utilities[pick_at_step[step] - 1] for step in model.manipulator_steps)
    return MilpSolution(value, pick_at_step)

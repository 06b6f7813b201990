import random
import tracemalloc

import pytest
from hypothesis import given, settings

from conftest import milp_solve, seeded_instances
from lp_reference import reference_lp, reference_model
from test_cli import character_mutations
from seqalloc import (
    GreedyRow,
    Instance,
    IpModel,
    ResourceLimitError,
    build_model,
    export_lp,
    gen_correlated,
    gen_random,
    parse_lp,
    simulate,
    solve_dp,
)
from seqalloc import ilp

ONE_ITEM_LP = export_lp(
    build_model(Instance(items=["x"], agents=["a"], sequence=[0], profile=[[0]], utilities=[1]))
)
TWO_ITEM_LP = export_lp(
    build_model(Instance(items=["x", "y"], agents=["a", "b"], sequence=[0, 1], profile=[[0, 1]] * 2, utilities=[2, 1]))
)


def test_model_dimensions(running_example):
    """4 items, 2 non-manipulator steps: 16 vars, 8 equalities, 8 covers."""
    model = build_model(running_example)
    assert model.num_vars == 16
    assert model.num_eq_rows == 8
    assert model.num_greedy_rows == 8
    assert model.manipulator_steps == (1, 4)
    assert model.utilities == (5, 4, 3, 1)


def test_greedy_row_contents(running_example):
    model = build_model(running_example)
    by_key = {(row.item, row.step): row for row in model.greedy_rows}
    # Agent a2 ranks i3 first, so its row at step 2 has no better items.
    assert by_key[(3, 2)] == GreedyRow(3, 2, ())
    # i1 sits behind i3 and i4 for a2.
    assert by_key[(1, 2)].better == (3, 4)
    # Agent a3 is truthful-identical to the manipulator.
    assert by_key[(4, 3)].better == (1, 2, 3)


def test_single_item_model():
    instance = Instance(items=["x"], agents=["a"], sequence=[0], profile=[[0]], utilities=[1])
    model = build_model(instance)
    assert model.num_vars == 1
    assert model.num_eq_rows == 2
    assert model.num_greedy_rows == 0


def test_export_contains_expected_rows(running_example):
    text = export_lp(build_model(running_example))
    assert text.splitlines()[0] == "Maximize"
    assert "5 x_1_1" in text
    assert "5 x_1_4" in text
    assert " item_1: x_1_1 + x_1_2 + x_1_3 + x_1_4 = 1" in text
    assert " greedy_3_2: x_3_2 + x_3_1 >= 1" in text
    assert text.rstrip().endswith("End")


def oracle_instances() -> dict:
    """Random and correlated instances at m 8-40 with n 1-5, and the one-item one."""
    cases = {"one-item": Instance(items=["x"], agents=["a"], sequence=[0], profile=[[0]], utilities=[1])}
    for m in (8, 13, 21, 32, 40):
        for n in range(1, 6):
            cases[f"random-{n}-{m}"] = gen_random(500 + m, n, m)[0]
            cases[f"correlated-{n}-{m}"] = gen_correlated(600 + m, n, m, 3)[0]
    return cases


ORACLE_INSTANCES = oracle_instances()


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_build_and_export_match_the_reference(name):
    """Shared tuples and names change no row and no byte."""
    instance = ORACLE_INSTANCES[name]
    model = build_model(instance)
    assert model == reference_model(instance)
    text = export_lp(model)
    assert text == reference_lp(model)
    if model.manipulator_steps:
        assert parse_lp(text) == model
    # One agent owns every step: no greedy rows at all.
    assert (instance.num_agents == 1) == (model.greedy_rows == ())


def hand_built_models() -> dict:
    """Models no instance builds: rows out of order, indices outside 1..m."""
    base = build_model(gen_random(7, 3, 6)[0])
    m = base.num_items
    rows = list(base.greedy_rows)
    random.Random(17).shuffle(rows)
    cases = {"shuffled": base._replace(greedy_rows=tuple(rows))}
    for odd in (0, m + 1, m + 3, -2):
        cases[f"item-{odd}"] = base._replace(greedy_rows=(GreedyRow(odd, 2, (1, 3)), *rows))
        cases[f"better-{odd}"] = base._replace(greedy_rows=(*rows, GreedyRow(2, 3, (odd, 1, odd))))
        cases[f"step-{odd}"] = base._replace(greedy_rows=(*rows[:5], GreedyRow(4, odd, (2, 1)), *rows[5:]))
        cases[f"all-{odd}"] = base._replace(greedy_rows=(GreedyRow(odd, odd, (odd,)), *rows))
        cases[f"manipulator-step-{odd}"] = base._replace(manipulator_steps=(*base.manipulator_steps, odd))
    # Far outside 1..m: one row 20,000 steps on, and 10,000 distinct better items at one step.
    cases["large-step"] = base._replace(greedy_rows=(*rows, GreedyRow(1, 20_000, (2,))))
    wide = [GreedyRow(2, 3, tuple(range(100 + 50 * i, 150 + 50 * i))) for i in range(200)]
    cases["many-better"] = base._replace(greedy_rows=(*rows, *wide))
    return cases


HAND_BUILT_MODELS = hand_built_models()


@pytest.mark.parametrize("name", HAND_BUILT_MODELS)
def test_export_matches_the_reference_on_hand_built_models(name):
    assert export_lp(HAND_BUILT_MODELS[name]) == reference_lp(HAND_BUILT_MODELS[name])


@pytest.mark.parametrize("name", ["large-step", "many-better"])
def test_export_memory_follows_the_text_on_hand_built_models(name):
    """Only the names a model writes are made, not every (item, step) pair it spans."""
    tracemalloc.start()
    try:
        text = export_lp(HAND_BUILT_MODELS[name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 9 bytes per byte of text; a names grid over all items and steps takes 80-100.
    assert peak < 16 * len(text)


def test_parse_reads_rows_out_of_order():
    model = HAND_BUILT_MODELS["shuffled"]
    assert parse_lp(reference_lp(model)) == model


def test_round_trip_is_byte_identical(running_example):
    model = build_model(running_example)
    text = export_lp(model)
    assert parse_lp(text) == model
    assert export_lp(parse_lp(text)) == text


def test_round_trip_on_random_instances():
    for instance in seeded_instances(25):
        model = build_model(instance)
        text = export_lp(model)
        assert export_lp(parse_lp(text)) == text
        if model.manipulator_steps:
            # Without manipulator steps the objective is empty and the
            # utilities are genuinely absent from the text.
            assert parse_lp(text) == model


@pytest.mark.parametrize(
    "text",
    [
        "nonsense",
        "Maximize\n obj: 1 x_1_1\nBinary\nEnd\n",
        "Maximize\n obj: 1 y_1\nSubject To\n item_1: x_1_1 = 1\nBinary\n x_1_1\nEnd\n",
        "Maximize\n obj: 1 x_1_1\nSubject To\n item_1: x_1_1 = 2\nBinary\n x_1_1\nEnd\n",
        ONE_ITEM_LP.replace("Binary\n x_1_1", "Binary\n 7x_1_1"),
        ONE_ITEM_LP.replace("\n ", "\n  "),
        # Row and better items outside 1..m round-trip through the export.
        TWO_ITEM_LP.replace(" greedy_1_2: x_1_2 + x_1_1", " greedy_1_2: x_1_2 + x_5_2 + x_1_1"),
        TWO_ITEM_LP.replace(" greedy_1_2: x_1_2 + x_1_1", " greedy_1_2: x_1_2 + x_0_2 + x_1_1"),
        TWO_ITEM_LP.replace("Binary", " greedy_3_2: x_3_2 + x_3_1 >= 1\nBinary"),
    ],
)
def test_parse_rejects_foreign_text(text):
    with pytest.raises(ValueError):
        parse_lp(text)


RANDOM_40_LP = export_lp(build_model(gen_random(3, 3, 40)[0]))
GREEDY_2_20 = RANDOM_40_LP[RANDOM_40_LP.index(" greedy_2_20: ") :].partition("\n")[0]


@pytest.mark.parametrize(
    "text",
    [
        # The row names step 20 but holds none of its 19 earlier terms.
        RANDOM_40_LP.replace(GREEDY_2_20, " greedy_2_20: x_2_20 >= 1"),
        TWO_ITEM_LP.replace(" greedy_1_2: x_1_2 + x_1_1", " greedy_1_2: x_1_2 + x_3_2 + x_1_1"),
        TWO_ITEM_LP.replace(" greedy_1_2: x_1_2 + x_1_1", " greedy_3_2: x_3_2 + x_3_1"),
        TWO_ITEM_LP.replace(" greedy_1_2: x_1_2 + x_1_1", " greedy_1_3: x_1_3 + x_1_1 + x_1_2"),
    ],
    ids=["short-row", "better-item", "row-item", "step"],
)
def test_parse_names_the_row_it_rejects(text):
    """Rows outside 1..m, or shorter than their earlier run, fail before any re-export."""
    with pytest.raises(ValueError, match="is not a greedy cover row over items 1.."):
        parse_lp(text)


LP_TEXTS = [ONE_ITEM_LP] + [export_lp(build_model(instance)) for instance in seeded_instances(6, items=(2, 3, 4))]


@given(character_mutations(LP_TEXTS, "x_0123456789 +:=>\n"))
@settings(deadline=None, max_examples=300)
def test_parse_accepts_only_what_export_writes(text):
    """A mutated export either reads back to a model that writes it again, or is a ValueError."""
    try:
        model = parse_lp(text)
    except ValueError:
        return
    assert export_lp(model) == text


def test_parse_allocation_is_bounded_by_the_text():
    """A step number written in the text must not size an allocation."""
    text = ONE_ITEM_LP.replace("Binary", " greedy_1_1: x_1_1000000 >= 1\nBinary").replace(" 1 x_1_1", "")
    assert len(text) == 112
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            parse_lp(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("seed", range(5))
def test_lp_term_cap_counts_the_export_exactly(monkeypatch, seed):
    """The cap counts every variable occurrence build_model's export would write."""
    instance, _ = gen_random(seed, 1 + seed % 4, 3 + 2 * seed)
    terms = export_lp(build_model(instance)).count("x_")
    monkeypatch.setattr(ilp, "MAX_LP_TERMS", terms)
    build_model(instance)
    monkeypatch.setattr(ilp, "MAX_LP_TERMS", terms - 1)
    with pytest.raises(ResourceLimitError):
        build_model(instance)


def _manipulator_picks(instance, solution) -> list[int]:
    """0-based items the MILP optimum gives the manipulator, in step order."""
    steps = [t for t, agent in enumerate(instance.sequence, start=1) if agent == 0]
    return [solution.pick_at_step[t] - 1 for t in steps]


def test_naive_solver_regression(running_example, running_example_steep):
    """The MILP optimum of the exported running example: 7, with {i2, i3}."""
    solution = milp_solve(export_lp(build_model(running_example)))
    assert solution.value == 7
    assert set(_manipulator_picks(running_example, solution)) == {1, 2}
    assert milp_solve(export_lp(build_model(running_example_steep))).value == 1997


def test_naive_matches_dp_on_random_instances():
    for instance in seeded_instances(30, items=(4, 5, 6)):
        assert milp_solve(export_lp(build_model(instance))).value == solve_dp(instance).optimal_utility


def test_milp_matches_dp_beyond_small_sizes():
    """DP against the MILP oracle at m 10-24, n 2-4, random and correlated."""
    checked = 0
    for index, m in enumerate(range(10, 25, 2)):
        n = 2 + index % 3
        for instance in (gen_random(40 + m, n, m)[0], gen_correlated(40 + m, n, m, 3)[0]):
            solution = milp_solve(export_lp(build_model(instance)))
            assert solution.value == solve_dp(instance).optimal_utility, (m, n)
            checked += 1
    assert checked == 16


def test_milp_matches_dp_at_m_32_to_40():
    """DP against the MILP oracle at m 32-40, n 2-4; each solve takes 0.5-2 s."""
    for instance in (
        gen_random(105, 3, 32)[0],
        gen_correlated(108, 2, 36, 3)[0],
        gen_correlated(113, 3, 40, 3)[0],
        gen_random(114, 4, 40)[0],
    ):
        solution = milp_solve(export_lp(build_model(instance)))
        assert solution.value == solve_dp(instance).optimal_utility, (instance.num_items, instance.num_agents)


def test_naive_result_replays(running_example):
    """Reporting the MILP's manipulator picks first replays to exactly those picks."""
    for instance in seeded_instances(15):
        picks = _manipulator_picks(instance, milp_solve(export_lp(build_model(instance))))
        ranking = picks + [item for item in instance.profile[0] if item not in picks]
        assert simulate(instance, ranking).bundles[0] == set(picks)


def test_truthful_run_is_feasible():
    """The indicator matrix of any protocol run satisfies every row."""
    for instance in seeded_instances(20):
        allocation = simulate(instance)
        assignment = {step: item + 1 for step, _, item in allocation.pick_log}
        solution = milp_solve(export_lp(build_model(instance)), pinned=assignment)
        assert solution is not None
        assert solution.pick_at_step == assignment


def test_non_protocol_assignment_is_infeasible(running_example):
    text = export_lp(build_model(running_example))
    # Giving a2 item i1 at step 2 while i3 is still on the table breaks greedy.
    assert milp_solve(text, pinned={1: 4, 2: 1, 3: 2, 4: 3}) is None
    # Pinning only that pick is enough: no completion repairs it.
    assert milp_solve(text, pinned={2: 1}) is None


def test_infeasible_model_is_reported():
    """Both items ranked first by the step-1 picker: no assignment covers both rows."""
    model = IpModel(
        num_items=2,
        utilities=(2, 1),
        manipulator_steps=(2,),
        greedy_rows=(GreedyRow(1, 1, ()), GreedyRow(2, 1, ())),
    )
    assert milp_solve(export_lp(model)) is None

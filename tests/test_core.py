import enum
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from seqalloc import (
    GraphInput,
    Instance,
    InvalidInstanceError,
    bundle_utility,
    gen_correlated,
    gen_random,
    profile_metrics,
    simulate,
    truthful_utility,
)
from seqalloc.core import _require_permutation


def test_truthful_simulation_bundles(running_example):
    """Truthful picks: manipulator 1st+4th turns end with {i1, i4}."""
    allocation = simulate(running_example)
    assert [sorted(b) for b in allocation.bundles] == [[0, 3], [2], [1]]
    assert allocation.pick_log == ((1, 0, 0), (2, 1, 2), (3, 2, 1), (4, 0, 3))


def test_truthful_utility_value(running_example, running_example_steep):
    assert truthful_utility(running_example) == 6
    assert truthful_utility(running_example_steep) == 1000


def test_simulate_reported_ranking(running_example):
    """Reporting i3 > i2 > i1 > i4 wins {i2, i3}."""
    allocation = simulate(running_example, [2, 1, 0, 3])
    assert sorted(allocation.bundles[0]) == [1, 2]
    assert allocation.pick_log == ((1, 0, 2), (2, 1, 3), (3, 2, 0), (4, 0, 1))
    assert bundle_utility(running_example, allocation.bundles[0]) == 7


def test_simulate_rejects_bad_ranking(running_example):
    with pytest.raises(InvalidInstanceError) as err:
        simulate(running_example, [0, 1, 2])
    assert err.value.code == "non-permutation"
    with pytest.raises(InvalidInstanceError):
        simulate(running_example, [0, 1, 2, 2])


def test_simulate_is_deterministic(running_example):
    assert simulate(running_example) == simulate(running_example)


def test_single_agent_takes_everything():
    instance = Instance(
        items=["x", "y"],
        agents=["only"],
        sequence=[0, 0],
        profile=[[1, 0]],
        utilities=[1, 2],
    )
    allocation = simulate(instance)
    assert allocation.bundles[0] == {0, 1}
    assert truthful_utility(instance) == 3


def _example_fields(running_example):
    return dict(
        items=list(running_example.items),
        agents=list(running_example.agents),
        sequence=list(running_example.sequence),
        profile=[list(r) for r in running_example.profile],
        utilities=list(running_example.utilities),
    )


@pytest.mark.parametrize(
    "patch, code",
    [
        ({"items": [], "sequence": [], "profile": [[], [], []], "utilities": []}, "empty"),
        ({"sequence": [0, 1, 2]}, "length-mismatch"),
        ({"utilities": [5, 4, 3]}, "length-mismatch"),
        ({"profile": [[0, 1, 2, 3], [2, 3, 0, 1]]}, "length-mismatch"),
        ({"sequence": [0, 1, 7, 0]}, "sequence-entry"),
        ({"profile": [[0, 1, 2, 3], [2, 3, 0, 1], [0, 1, 2, 2]]}, "non-permutation"),
        ({"profile": [[0, 1, 2], [2, 3, 0, 1], [0, 1, 2, 3]]}, "non-permutation"),
        ({"utilities": [5, 4, 4, 1]}, "non-strict-utilities"),
        ({"utilities": [5, 4, 3, -1]}, "negative-utility"),
        ({"utilities": [2**62, 2**62 - 1, 2**62 - 2, 0]}, "utility-overflow"),
        ({"items": ["i1", "i1", "i3", "i4"]}, "duplicate-name"),
        ({"agents": ["a1", "a2", "a2"]}, "duplicate-name"),
    ],
)
def test_validation_error_codes(running_example, patch, code):
    fields = _example_fields(running_example)
    fields.update(patch)
    with pytest.raises(InvalidInstanceError) as err:
        Instance(**fields)
    assert err.value.code == code


def test_zero_utility_is_allowed(running_example):
    fields = _example_fields(running_example)
    fields["utilities"] = [5, 4, 3, 0]
    assert Instance(**fields).utilities[3] == 0


def test_profile_metrics(running_example):
    # range_max is the one field: item i1 sits at positions 3 and 1.
    assert profile_metrics(running_example) == (3,)


@pytest.mark.parametrize("n", range(1, 7))
def test_range_max_matches_its_definition(n):
    """range_max is the max over items of (max rank - min rank + 1) across agents 1..n-1."""
    for seed in range(1, 13):
        m = 1 + seed
        random_instance, _ = gen_random(seed, n, m)
        correlated, _ = gen_correlated(seed, n, m, 1 + seed % m)
        for instance in (random_instance, correlated):
            ranks = [{item: pos for pos, item in enumerate(row, start=1)} for row in instance.profile[1:]]
            expected = None
            if ranks:
                expected = max(
                    max(rank[item] for rank in ranks) - min(rank[item] for rank in ranks) + 1 for item in range(m)
                )
            assert profile_metrics(instance).range_max == expected


def test_profile_metrics_identical_rankings():
    instance = Instance(
        items=["i1", "i2", "i3"],
        agents=["a1", "a2", "a3"],
        sequence=[0, 1, 2],
        profile=[[0, 1, 2], [1, 0, 2], [1, 0, 2]],
        utilities=[3, 2, 1],
    )
    metrics = profile_metrics(instance)
    assert metrics.range_max == 1


def test_profile_metrics_single_agent_has_no_range():
    instance = Instance(
        items=["x", "y"],
        agents=["only"],
        sequence=[0, 0],
        profile=[[0, 1]],
        utilities=[2, 1],
    )
    metrics = profile_metrics(instance)
    assert metrics.range_max is None


def test_json_round_trip(running_example):
    text = running_example.to_json()
    assert Instance.from_json(text) == running_example
    assert Instance.from_json(text).to_json() == text
    assert list(json.loads(text)) == ["items", "agents", "sequence", "profile", "utilities"]
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2, 3]",
        '{"items": ["a"], "agents": ["x"]}',
        '{"items": ["a"], "agents": ["x"], "sequence": [0], "profile": 3, "utilities": [1]}',
    ],
)
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(InvalidInstanceError):
        Instance.from_json(text)


def test_allocation_json_dict(running_example):
    doc = simulate(running_example).to_json_dict()
    assert doc["bundles"] == [[0, 3], [2], [1]]
    assert doc["pick_log"][0] == [1, 0, 0]


RECORDS = {
    "Instance": (
        lambda: Instance(
            items=["x", "y"], agents=["a1", "a2"], sequence=[0, 1], profile=[[0, 1], [1, 0]], utilities=[2, 1]
        ),
        "Instance(items=('x', 'y'), agents=('a1', 'a2'), sequence=(0, 1), profile=((0, 1), (1, 0)), "
        "utilities=(2, 1))",
    ),
    "GraphInput": (
        lambda: GraphInput(3, [(2, 1), (3, 1)], coloring=[1, 2, 2]),
        "GraphInput(num_vertices=3, edges=((1, 2), (1, 3)), coloring=(1, 2, 2))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_value_objects(name):
    """Instance and GraphInput: frozen fields, field-wise equality and hash, fixed repr."""
    make, text = RECORDS[name]
    record, twin = make(), make()
    fields = type(record).__slots__
    assert record is not twin
    assert record == twin
    assert hash(record) == hash(twin) == hash(tuple(getattr(record, field) for field in fields))
    assert repr(record) == text
    assert record.__eq__(object()) is NotImplemented
    assert record != text
    other_kind = "GraphInput" if name == "Instance" else "Instance"
    assert record.__eq__(RECORDS[other_kind][0]()) is NotImplemented
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}': {name} is immutable$"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}': {name} is immutable$"):
            delattr(record, field)
    assert record == twin


def test_records_differ_when_one_field_differs():
    instance = RECORDS["Instance"][0]()
    assert instance != Instance(
        items=["x", "z"], agents=["a1", "a2"], sequence=[0, 1], profile=[[0, 1], [1, 0]], utilities=[2, 1]
    )
    assert instance != Instance(
        items=["x", "y"], agents=["a1", "a2"], sequence=[0, 1], profile=[[0, 1], [1, 0]], utilities=[3, 1]
    )
    graph = RECORDS["GraphInput"][0]()
    assert graph != GraphInput(3, [(1, 2), (1, 3)])
    assert graph != GraphInput(3, [(1, 2), (2, 3)], coloring=[1, 2, 2])
    assert graph != GraphInput(4, [(1, 2), (1, 3)], coloring=[1, 2, 2, 2])


# Validation verdicts pinned input by input, so a faster form of the
# checks must give the same code and message for each.  Each bad
# value replaces the second entry of the sequence, of profile row 1, of
# the utilities or of simulate's reported ranking in the running
# example; "short" drops the last entry and "long" appends a valid one.
# None means the input is accepted.
BAD_VALUES = {"true": True, "float": 1.0, "str": "1", "none": None, "negative": -1}
BAD_FIELDS = {
    # field: (valid entries, out of range, duplicate, appended when long)
    "sequence": ([0, 1, 2, 0], 3, 0, 1),
    "profile": ([2, 3, 0, 1], 4, 2, 0),
    "utilities": ([5, 4, 3, 1], 2**63, 5, 0),
    "ranking": ([0, 1, 2, 3], 4, 0, 3),
}
NOT_AGENT = "sequence entry {} is not an agent index"
ROW_1 = ("non-permutation", "profile row 1 is not a permutation of 0..3")
RANKING = ("non-permutation", "reported ranking is not a permutation of 0..3")
NOT_INT = "utility {} is not an integer"
NOT_STRICT = "utilities must strictly decrease along the manipulator's ranking (violated between items {} and {})"
VERDICTS = {
    ("sequence", "true"): ("sequence-entry", NOT_AGENT.format("True")),
    ("sequence", "float"): ("sequence-entry", NOT_AGENT.format("1.0")),
    ("sequence", "str"): ("sequence-entry", NOT_AGENT.format("'1'")),
    ("sequence", "none"): ("sequence-entry", NOT_AGENT.format("None")),
    ("sequence", "negative"): ("sequence-entry", NOT_AGENT.format("-1")),
    ("sequence", "out-of-range"): ("sequence-entry", NOT_AGENT.format("3")),
    ("sequence", "duplicate"): None,
    ("sequence", "short"): ("length-mismatch", "sequence has 3 entries for 4 items"),
    ("sequence", "long"): ("length-mismatch", "sequence has 5 entries for 4 items"),
    **{("profile", name): ROW_1 for name in [*BAD_VALUES, "out-of-range", "duplicate"]},
    ("profile", "short"): ("non-permutation", "profile row 1 has 3 entries for 4 items"),
    ("profile", "long"): ("non-permutation", "profile row 1 has 5 entries for 4 items"),
    ("utilities", "true"): ("malformed", NOT_INT.format("True")),
    ("utilities", "float"): ("malformed", NOT_INT.format("1.0")),
    ("utilities", "str"): ("malformed", NOT_INT.format("'1'")),
    ("utilities", "none"): ("malformed", NOT_INT.format("None")),
    ("utilities", "negative"): ("negative-utility", "utility -1 is negative"),
    ("utilities", "out-of-range"): ("utility-overflow", "utilities sum past the signed 64-bit limit"),
    ("utilities", "duplicate"): ("non-strict-utilities", NOT_STRICT.format(0, 1)),
    ("utilities", "short"): ("length-mismatch", "utilities list 3 values for 4 items"),
    ("utilities", "long"): ("length-mismatch", "utilities list 5 values for 4 items"),
    **{("ranking", name): RANKING for name in [*BAD_VALUES, "out-of-range", "duplicate"]},
    ("ranking", "short"): ("non-permutation", "reported ranking has 3 entries for 4 items"),
    ("ranking", "long"): ("non-permutation", "reported ranking has 5 entries for 4 items"),
}


def bad_entries(field: str, name: str) -> list:
    valid, out_of_range, duplicate, extra = BAD_FIELDS[field]
    if name == "short":
        return valid[:-1]
    if name == "long":
        return valid + [extra]
    value = {**BAD_VALUES, "out-of-range": out_of_range, "duplicate": duplicate}[name]
    return [valid[0], value, *valid[2:]]


def verdict(running_example, field: str, entries) -> tuple[str, str] | None:
    """The error code and message for ``entries`` in ``field``, or None if accepted."""
    fields = _example_fields(running_example)
    try:
        if field == "ranking":
            simulate(running_example, entries)
        elif field == "profile":
            fields["profile"][1] = entries
            Instance(**fields)
        else:
            fields[field] = entries
            Instance(**fields)
    except InvalidInstanceError as err:
        return err.code, str(err)
    return None


def test_verdict_table_covers_every_bad_input():
    names = [*BAD_VALUES, "out-of-range", "duplicate", "short", "long"]
    assert sorted(VERDICTS) == sorted((field, name) for field in BAD_FIELDS for name in names)


@pytest.mark.parametrize("field, name", sorted(VERDICTS))
def test_validation_verdicts_are_pinned(running_example, field, name):
    # A TypeError from comparing or sorting mixed types would escape here.
    assert verdict(running_example, field, bad_entries(field, name)) == VERDICTS[field, name]


@pytest.mark.parametrize(
    "field, entries, expected",
    [
        # The message names the first offender in entry order.
        ("sequence", [0, 7, "x", 0], ("sequence-entry", NOT_AGENT.format("7"))),
        ("sequence", [0, "x", 7, 0], ("sequence-entry", NOT_AGENT.format("'x'"))),
        ("sequence", [None, 0, 1.5, 0], ("sequence-entry", NOT_AGENT.format("None"))),
        ("utilities", [5, -1, "x", 1], ("negative-utility", "utility -1 is negative")),
        ("utilities", [5, "x", -1, 1], ("malformed", NOT_INT.format("'x'"))),
        ("utilities", [5, 4, 4, 4], ("non-strict-utilities", NOT_STRICT.format(1, 2))),
        ("utilities", [1, 2, 3, 4], ("non-strict-utilities", NOT_STRICT.format(0, 1))),
        # Sorting any of these rows would raise TypeError.
        ("profile", [0, "a", 2, 3], ROW_1),
        ("profile", [[0], 1, 2, 3], ROW_1),
        ("ranking", [3, 2, None, 0], RANKING),
        ("ranking", [3.0, 2, 1, 0], RANKING),
        ("ranking", [False, 1, 2, 3], RANKING),
    ],
)
def test_validation_names_the_first_offender(running_example, field, entries, expected):
    assert verdict(running_example, field, entries) == expected


class Item(enum.IntEnum):
    FIRST = 0
    SECOND = 1
    THIRD = 2
    FOURTH = 3


class Name(str):
    pass


@pytest.mark.parametrize(
    "field, entries",
    [
        ("profile", list(Item)),
        ("profile", [Item.THIRD, 3, Item.FIRST, 1]),
        ("ranking", list(reversed(Item))),
        ("sequence", [Item.FIRST, Item.SECOND, Item.THIRD, 0]),
        ("utilities", [5, 4, Item.FOURTH, Item.SECOND]),
    ],
)
def test_int_subclasses_are_still_accepted(running_example, field, entries):
    assert verdict(running_example, field, entries) is None


def test_str_subclass_names_are_still_accepted(running_example):
    fields = _example_fields(running_example)
    fields["items"] = [Name(item) for item in fields["items"]]
    assert Instance(**fields).items == running_example.items


@pytest.mark.parametrize("names", [["i1", 2, "i3", "i4"], ["i1", "", "i3", "i4"], ["i1", ["i2"], "i3", "i4"]])
def test_item_names_must_be_nonempty_strings(running_example, names):
    fields = _example_fields(running_example)
    fields["items"] = names
    with pytest.raises(InvalidInstanceError, match="item and agent names must be nonempty strings"):
        Instance(**fields)


def entry_by_entry_permutation_check(row, m, label):
    """An entry-by-entry permutation check, the oracle for _require_permutation."""
    if len(row) != m:
        raise InvalidInstanceError("non-permutation", f"{label} has {len(row)} entries for {m} items")
    seen = [False] * m
    for item in row:
        if not isinstance(item, int) or isinstance(item, bool) or not 0 <= item < m or seen[item]:
            raise InvalidInstanceError("non-permutation", f"{label} is not a permutation of 0..{m - 1}")
        seen[item] = True


def permutation_verdict(check, row, m):
    try:
        check(row, m, "row")
    except InvalidInstanceError as err:
        return err.code, str(err)
    return None


ODD_ENTRIES = st.one_of(
    st.integers(-2, 7),
    st.booleans(),
    st.sampled_from(list(Item)),
    st.floats(allow_nan=False, min_value=-1, max_value=7),
    st.text(max_size=1),
    st.none(),
)


@st.composite
def mixed_rows(draw):
    m = draw(st.integers(1, 6))
    row = draw(st.permutations(range(m)))
    # Overwrite a few entries with anything, and sometimes resize the row.
    for _ in range(draw(st.integers(0, 2))):
        row[draw(st.integers(0, m - 1))] = draw(ODD_ENTRIES)
    row = row[: draw(st.integers(m - 1, m))] + draw(st.lists(ODD_ENTRIES, max_size=1))
    return draw(st.sampled_from([list, tuple]))(row), m


@settings(max_examples=400, deadline=None)
@given(mixed_rows())
def test_permutation_check_matches_the_entry_by_entry_loop(case):
    row, m = case
    expected = permutation_verdict(entry_by_entry_permutation_check, row, m)
    assert permutation_verdict(_require_permutation, row, m) == expected

import json

import pytest

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

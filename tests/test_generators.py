import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import pytest

from seqalloc import (
    GraphInput,
    ResourceLimitError,
    bundle_class_signature,
    gen_clique_reduction,
    gen_correlated,
    gen_mcc_reduction,
    gen_random,
    gen_tight_family,
    metadata_to_json,
    parse_graph,
    profile_metrics,
    sidon_table,
    simulate,
    solve_subset_enum,
    truthful_utility,
)
from seqalloc import generators

TRIANGLE_PLUS = GraphInput(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)))
FOUR_CYCLE = GraphInput(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
MCC_GRAPH = GraphInput(4, ((1, 3), (1, 4), (2, 3)), coloring=(1, 1, 2, 2))


def test_sidon_small_table():
    table = sidon_table(3)
    assert table.prime == 5
    assert table.id_values == (11, 24, 34)
    sums = {a + b for a, b in itertools.combinations_with_replacement(table.id_values, 2)}
    assert sums == {22, 35, 45, 48, 58, 68}


def test_sidon_sums_distinct_exhaustively():
    for n in range(1, 201):
        ids = sidon_table(n).id_values
        pair_count = n * (n + 1) // 2
        sums = {a + b for a, b in itertools.combinations_with_replacement(ids, 2)}
        assert len(sums) == pair_count, f"collision among identifiers for n={n}"


def test_sidon_rejects_empty():
    with pytest.raises(ValueError):
        sidon_table(0)


def test_parse_graph_edges_and_colors():
    graph = parse_graph(
        """
        # a square with colors
        4 4
        1 2
        2 3
        3 4
        4 1
        color 1 1
        color 2 2
        color 3 1
        color 4 2
        """
    )
    assert graph.num_vertices == 4
    assert graph.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert graph.coloring == (1, 2, 1, 2)


def test_parse_graph_without_colors():
    graph = parse_graph("3 2\n1 2\n2 3\n")
    assert graph.coloring is None


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n1 2\n",
        "3 2\n1 2\n",
        "3 1\n1 2\n2 3\n",
        "3 1\n1 2 3\n",
        "3 1\n1 1\n",
        "3 2\n1 2\n2 1\n",
        "3 1\n1 4\n",
        "3 1\n1 2\ncolor 1 1\n",
        "3 1\n1 2\ncolor 1 1\ncolor 1 2\ncolor 2 1\ncolor 3 1\n",
        "3 1\n1 2\ncolor 1\n",
        "4 1\n1 2\ncolor 1 1\ncolor 2 1\ncolor 3 2\ncolor 4 2\ncolor 99 7\n",
        "1000000 0\ncolor 1 1\n",
    ],
)
def test_parse_graph_rejects_bad_text(text):
    with pytest.raises(ValueError) as err:
        parse_graph(text)
    assert len(str(err.value)) < 200


def test_graph_normalizes_edge_order():
    graph = GraphInput(3, ((3, 1), (2, 1)))
    assert graph.edges == ((1, 2), (1, 3))


def test_random_is_deterministic():
    first, meta_a = gen_random(11, 3, 6)
    second, meta_b = gen_random(11, 3, 6)
    assert first.to_json() == second.to_json()
    assert meta_a == meta_b == {"type": "random", "seed": 11, "agents": 3, "items": 6}
    different, _ = gen_random(12, 3, 6)
    assert different.to_json() != first.to_json()


def test_random_utilities_follow_manipulator_ranking():
    instance, _ = gen_random(5, 2, 7)
    ranked = [instance.utilities[item] for item in instance.profile[0]]
    assert ranked == [7, 6, 5, 4, 3, 2, 1]


def test_random_pins_manipulator_turns():
    for mu in (0, 3, 6):
        instance, _ = gen_random(9, 3, 6, mu_manipulator=mu)
        assert sum(1 for agent in instance.sequence if agent == 0) == mu
    with pytest.raises(ValueError):
        gen_random(9, 3, 6, mu_manipulator=7)
    with pytest.raises(ValueError):
        gen_random(9, 1, 6, mu_manipulator=3)


def test_correlated_respects_target_range():
    for seed in range(1, 9):
        instance, metadata = gen_correlated(seed, 4, 12, 3)
        realized = profile_metrics(instance).range_max
        assert realized == metadata["realized_range_max"]
        assert realized <= 3


def test_correlated_target_one_means_identical_rankings():
    instance, metadata = gen_correlated(7, 4, 10, 1)
    assert instance.profile[1] == instance.profile[2] == instance.profile[3]
    assert metadata["realized_range_max"] == 1


def test_correlated_rejects_bad_target():
    with pytest.raises(ValueError):
        gen_correlated(1, 3, 5, 0)
    with pytest.raises(ValueError):
        gen_correlated(1, 3, 5, 6)


def test_tight_family_values():
    instance, metadata = gen_tight_family(1000)
    assert metadata == {"type": "tight", "scale": 1000}
    assert truthful_utility(instance) == 1000
    assert solve_subset_enum(instance).optimal_utility == 1997


def test_tight_family_needs_room_for_strict_utilities():
    with pytest.raises(ValueError):
        gen_tight_family(2)


def test_clique_gadget_shape():
    instance, metadata = gen_clique_reduction(TRIANGLE_PLUS, 3)
    assert instance.num_items == 18
    assert instance.num_agents == 10
    assert metadata["manipulator_picks"] == 7
    assert sum(1 for agent in instance.sequence if agent == 0) == 7
    assert metadata["utility_scale"] == 18 * 18
    assert metadata["item_classes"].count("best") == 4
    assert metadata["item_classes"].count("good") == 5
    # Class values never cross even after the per-item offsets.
    worst_good = min(
        instance.utilities[i] for i, c in enumerate(metadata["item_classes"]) if c == "good"
    )
    best_medium = max(
        instance.utilities[i] for i, c in enumerate(metadata["item_classes"]) if c == "medium"
    )
    assert worst_good > best_medium


def test_clique_signature_detects_triangle():
    instance, metadata = gen_clique_reduction(TRIANGLE_PLUS, 3)
    result = solve_subset_enum(instance)
    assert bundle_class_signature(metadata, result.bundle) == metadata["signature_with_clique"]


def test_clique_signature_rejects_triangle_free_graph():
    instance, metadata = gen_clique_reduction(FOUR_CYCLE, 3)
    result = solve_subset_enum(instance)
    assert bundle_class_signature(metadata, result.bundle) == metadata["signature_without_clique"]


def test_clique_gadget_preconditions():
    with pytest.raises(ValueError):
        gen_clique_reduction(TRIANGLE_PLUS, 0)
    with pytest.raises(ValueError):
        gen_clique_reduction(TRIANGLE_PLUS, 4)
    with pytest.raises(ValueError):
        gen_clique_reduction(GraphInput(4, ((1, 2), (1, 3), (2, 3))), 3)


def test_clique_gadget_is_deterministic():
    first, meta_a = gen_clique_reduction(TRIANGLE_PLUS, 3)
    second, meta_b = gen_clique_reduction(TRIANGLE_PLUS, 3)
    assert first.to_json() == second.to_json()
    assert metadata_to_json(meta_a) == metadata_to_json(meta_b)


def test_mcc_gadget_shape():
    instance, metadata = gen_mcc_reduction(MCC_GRAPH, 2)
    assert instance.num_agents == 8
    assert instance.num_items == 1240
    assert metadata["prime"] == 5
    assert metadata["sidon_ids"] == [11, 24, 34, 41]
    assert metadata["alpha"] == 258
    assert metadata["shift"] == 44
    sizes = {name: end - start for name, (start, end) in metadata["blocks"].items()}
    assert sizes == {
        "B1": 123,
        "B2": 123,
        "Idc1": 43,
        "Idc2": 43,
        "Idbar1": 43,
        "Idbar2": 43,
        "Idp1_2": 84,
        "D": 246,
        "Z": 492,
    }
    assert sum(1 for agent in instance.sequence if agent == 0) == 748


def test_mcc_boundary_prefix_sums_vanish():
    instance, metadata = gen_mcc_reduction(MCC_GRAPH, 2)
    frame = metadata["proof_frame_utilities"]
    for name, boundaries in metadata["tau_boundaries"].items():
        start, _ = metadata["blocks"][name]
        for boundary in boundaries:
            assert sum(frame[start : start + boundary]) == 0, (name, boundary)


def test_mcc_truthful_picks_stay_in_declared_blocks():
    instance, metadata = gen_mcc_reduction(MCC_GRAPH, 2)
    allocation = simulate(instance)
    spans = {name: range(start, end) for name, (start, end) in metadata["blocks"].items()}
    for agent_name, block_names in metadata["agent_blocks"].items():
        agent = instance.agents.index(agent_name)
        allowed = set()
        for name in block_names:
            allowed.update(spans[name])
        assert allocation.bundles[agent] <= allowed, agent_name


def test_mcc_is_deterministic():
    first, meta_a = gen_mcc_reduction(MCC_GRAPH, 2)
    second, meta_b = gen_mcc_reduction(MCC_GRAPH, 2)
    assert first.to_json() == second.to_json()
    assert metadata_to_json(meta_a) == metadata_to_json(meta_b)


def test_mcc_preconditions():
    with pytest.raises(ValueError):
        gen_mcc_reduction(MCC_GRAPH, 1)
    uncolored = GraphInput(4, ((1, 3), (1, 4), (2, 3)))
    with pytest.raises(ValueError):
        gen_mcc_reduction(uncolored, 2)
    monochrome = GraphInput(4, ((1, 3), (1, 4), (2, 3)), coloring=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        gen_mcc_reduction(monochrome, 2)
    stray_color = GraphInput(4, ((1, 3), (1, 4), (2, 3)), coloring=(1, 1, 2, 3))
    with pytest.raises(ValueError):
        gen_mcc_reduction(stray_color, 2)
    # A huge k is refused without materializing the colors 1..k.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            gen_mcc_reduction(MCC_GRAPH, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# Each request asks for 1.2-1.5 times MAX_PROFILE_ENTRIES agent x item
# entries, so a missing guard costs megabytes, not gigabytes.
OVERSIZED = {
    "random": lambda: gen_random(1, 2, 600_000),
    "correlated": lambda: gen_correlated(1, 2, 600_000, 1),
    "clique": lambda: gen_clique_reduction(parse_graph("600 1\n1 2\n"), 1),
    "mcc": lambda: gen_mcc_reduction(GraphInput(50, ((1, 2),), coloring=tuple(1 + v % 2 for v in range(50))), 2),
}

SMALL = {
    "random": lambda: gen_random(1, 3, 7),
    "correlated": lambda: gen_correlated(1, 4, 9, 3),
    "clique": lambda: gen_clique_reduction(TRIANGLE_PLUS, 2),
    "mcc": lambda: gen_mcc_reduction(MCC_GRAPH, 2),
}


@pytest.mark.parametrize("family", sorted(OVERSIZED))
def test_generators_refuse_oversized_instances(family):
    with pytest.raises(ResourceLimitError, match="generator cap"):
        OVERSIZED[family]()


@pytest.mark.parametrize("family", sorted(SMALL))
def test_size_cap_counts_the_built_instance_exactly(monkeypatch, family):
    instance, _ = SMALL[family]()
    entries = instance.num_agents * instance.num_items
    monkeypatch.setattr(generators, "MAX_PROFILE_ENTRIES", entries)
    SMALL[family]()
    monkeypatch.setattr(generators, "MAX_PROFILE_ENTRIES", entries - 1)
    with pytest.raises(ResourceLimitError):
        SMALL[family]()


def test_metadata_json_is_canonical():
    _, metadata = gen_mcc_reduction(MCC_GRAPH, 2)
    text = metadata_to_json(metadata)
    assert text.endswith("\n")
    assert text == metadata_to_json(dict(reversed(list(metadata.items()))))


# SHA-256 of instance JSON plus metadata JSON over a grid of shapes, all
# at seed 11, recorded from the draw-at-a-time generator that preceded
# block-computed draws.  Pinned so that any change to the stream, to the
# draws a generator makes or to validation shows up as a changed byte.
DIGESTS = json.loads(Path(__file__).with_name("generator_digests.json").read_text())


def digest_grid():
    """Case name -> generator call, for every valid grid point."""
    cases = {}
    for n in (1, 2, 10):
        for m in (1, 2, 200, 1000):
            for mu in (None, 0, m):
                if n == 1 and mu not in (None, m):
                    continue  # a single agent holds every turn
                cases[f"random n={n} m={m} mu={mu} target=None"] = (gen_random, (11, n, m, mu))
                for target in sorted({1, 3, m}):
                    if target <= m:
                        cases[f"correlated n={n} m={m} mu={mu} target={target}"] = (
                            gen_correlated,
                            (11, n, m, target, mu),
                        )
    return cases


DIGEST_GRID = digest_grid()


def test_digest_grid_covers_every_pinned_case():
    assert sorted(DIGEST_GRID) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(DIGEST_GRID))
def test_generated_bytes_are_pinned(case):
    generate, args = DIGEST_GRID[case]
    instance, metadata = generate(*args)
    text = instance.to_json() + metadata_to_json(metadata)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case]

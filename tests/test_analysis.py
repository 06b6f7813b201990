from fractions import Fraction

import pytest

from conftest import seeded_instances
from seqalloc import achievability, analysis, dp
from seqalloc import (
    BoundViolationError,
    Instance,
    SWEEP_COLUMNS,
    SweepConfig,
    bench_sweep,
    build_state_graph,
    check_state_bounds,
    gen_correlated,
    gen_tight_family,
    run_sweep,
    solve_bruteforce_rankings,
    sweep_to_csv,
)
from state_checks import states, verify_state_invariants


def two_item_instance(sequence):
    return Instance(
        items=["x", "y"],
        agents=["a", "b"],
        sequence=sequence,
        profile=[[0, 1], [0, 1]],
        utilities=[1, 0],
    )


def test_ratio_report_frozen(running_example):
    report = check_state_bounds(running_example)
    assert report.u_truthful == 6
    assert report.u_optimal == 7
    assert report.ratio == Fraction(7, 6)
    assert report.bound_ok and not report.vacuous
    assert report.states == 12
    assert report.distinct_sets == 6


def test_ratio_near_the_ceiling():
    instance, _ = gen_tight_family(1000)
    report = check_state_bounds(instance)
    assert report.ratio == Fraction(1997, 1000)
    assert report.bound_ok


def test_ratio_vacuous_when_truthful_is_zero():
    report = check_state_bounds(two_item_instance([1, 0]))
    assert report.u_truthful == 0
    assert report.u_optimal == 0
    assert report.ratio is None
    assert report.vacuous and report.bound_ok


def test_ratio_can_be_exactly_one():
    report = check_state_bounds(two_item_instance([0, 1]))
    assert report.ratio == Fraction(1, 1)
    assert not report.vacuous


@pytest.mark.parametrize("fault", ["ratio", "cap"])
def test_check_state_bounds_raises_on_either_fact(monkeypatch, running_example, fault):
    """A solver result breaking either proven fact trips the one bound check."""
    honest = analysis.solve_dp

    def broken(instance, **kwargs):
        result = honest(instance, **kwargs)
        if fault == "ratio":
            return result._replace(optimal_utility=2 * 6)
        stats = dict(result.stats, distinct_sets=result.stats["bound_m_pow"] + 1)
        return result._replace(stats=stats)

    monkeypatch.setattr(analysis, "solve_dp", broken)
    message = "reaches twice the truthful 6" if fault == "ratio" else "17 distinct taken sets exceed bound m_pow = 16"
    with pytest.raises(BoundViolationError, match=message):
        check_state_bounds(running_example)


def test_state_bound_slack_frozen(running_example):
    report = check_state_bounds(running_example)
    assert report.bounds == {"m_pow": 16, "mu": 36, "rg_n": 24, "rg": 256}
    assert report.slack == {"m_pow": 10, "mu": 30, "rg_n": 18, "rg": 250}


def test_report_json_shape(running_example):
    doc = check_state_bounds(running_example).to_json_dict()
    assert doc["ratio"] == "7/6"
    assert doc["vacuous"] is False
    assert set(doc["bounds"]) == {"m_pow", "mu", "rg_n", "rg"}


def test_invariants_hold_on_running_example(running_example):
    graph = build_state_graph(running_example)
    assert verify_state_invariants(running_example, graph) == 12


def test_invariants_hold_on_random_instances():
    for instance in seeded_instances(20):
        graph = build_state_graph(instance)
        assert verify_state_invariants(instance, graph) == graph.num_states


def test_invariants_hold_on_correlated_instances():
    for seed in range(1, 6):
        instance, _ = gen_correlated(seed, 4, 12, 3)
        graph = build_state_graph(instance)
        assert verify_state_invariants(instance, graph) == graph.num_states


def test_invariants_trivial_without_non_manipulators():
    instance = Instance(
        items=["x", "y"],
        agents=["a"],
        sequence=[0, 0],
        profile=[[0, 1]],
        utilities=[1, 0],
    )
    graph = build_state_graph(instance)
    assert verify_state_invariants(instance, graph) == 0


def test_invariants_catch_foreign_graph(running_example):
    graph = build_state_graph(running_example)
    impostor = Instance(
        items=running_example.items,
        agents=running_example.agents,
        sequence=running_example.sequence,
        profile=[[0, 1, 2, 3]] * 3,
        utilities=running_example.utilities,
    )
    with pytest.raises(BoundViolationError):
        verify_state_invariants(impostor, graph)


def test_invariant_error_names_the_first_state_over_the_set(running_example):
    """Each set is checked once; a failure names its first state's banked count."""
    graph = build_state_graph(running_example)
    banked, set_ids = zip(*states(graph))
    shared = max(sorted(set(set_ids)), key=set_ids.count)
    assert set_ids.count(shared) > 1
    first = set_ids.index(shared)
    graph.taken[shared] = 0b10  # item 1 alone lies above no agent's favourite
    with pytest.raises(BoundViolationError, match=rf"^state \(k={banked[first]}, taken=10\) "):
        verify_state_invariants(running_example, graph)


def test_sweep_cross_checks_dp_against_brute():
    config = SweepConfig(
        agents=(2, 3),
        items=(4, 5),
        seeds=(1, 2),
        algorithms=("dp", "brute"),
    )
    rows = run_sweep(config)
    assert len(rows) == 16
    assert all(row["status"] == "ok" for row in rows)
    for dp_row, brute_row in zip(rows[::2], rows[1::2]):
        assert dp_row["algorithm"] == "dp"
        assert brute_row["algorithm"] == "brute"
        assert dp_row["optimal_utility"] == brute_row["optimal_utility"]
        assert dp_row["mu_manipulator"] == brute_row["mu_manipulator"]


def test_sweep_rows_carry_bounds_only_for_dp():
    config = SweepConfig(agents=(3,), items=(5,), algorithms=("dp", "subset"))
    dp_row, subset_row = run_sweep(config)
    assert dp_row["distinct_sets"] is not None
    assert dp_row["distinct_sets"] <= dp_row["bound_m_pow"]
    assert subset_row["states"] is None
    assert subset_row["optimal_utility"] == dp_row["optimal_utility"]


def test_sweep_survives_resource_limited_rows():
    config = SweepConfig(agents=(2,), items=(9,), algorithms=("brute", "dp"))
    rows = run_sweep(config)
    assert rows[0]["status"] == "resource-limit"
    assert rows[0]["optimal_utility"] is None
    assert rows[1]["status"] == "ok"


def test_sweep_row_for_an_oversized_instance():
    # 2 x 600,000 profile entries exceed the generators' size cap; the
    # generator refuses before a solver sees the instance.
    (row,) = run_sweep(SweepConfig(agents=(2,), items=(600_000,), algorithms=("brute",)))
    assert row["status"] == "resource-limit"
    assert row["mu_manipulator"] is None


def test_sweep_row_past_the_subset_budget():
    (row,) = run_sweep(SweepConfig(agents=(2,), items=(20_000,), algorithms=("subset",)))
    # The generator built the instance; the solver refused it.
    assert row["mu_manipulator"] is not None
    assert row["status"] == "resource-limit"


def test_sweep_survives_internal_errors(monkeypatch):
    """An internal error marks its row; the rest of the grid still runs."""

    def broken(instance):
        raise RuntimeError("internal error: recovered ranking does not replay")

    monkeypatch.setattr(achievability, "solve_bruteforce_rankings", broken)
    config = SweepConfig(agents=(2,), items=(4,), algorithms=("brute", "dp"))
    rows = run_sweep(config)
    assert rows[0]["status"] == "internal:internal error: recovered ranking does not replay"
    assert rows[0]["optimal_utility"] is None
    assert rows[1]["status"] == "ok"


@pytest.mark.parametrize("fault", ["ratio", "cap"])
def test_sweep_rows_hold_results_to_both_facts(monkeypatch, fault):
    """A sweep row breaking either proven fact reads internal, where check would raise."""
    honest = dp.solve_dp

    def broken(instance):
        result = honest(instance)
        if fault == "ratio":
            return result._replace(optimal_utility=2 * 8)
        return result._replace(stats=dict(result.stats, distinct_sets=result.stats["bound_m_pow"] + 1))

    monkeypatch.setattr(dp, "solve_dp", broken)
    (row,) = run_sweep(SweepConfig(agents=(3,), items=(5,)))
    message = "optimal utility 16 reaches twice the truthful 8" if fault == "ratio" else "26 distinct taken sets exceed bound m_pow = 25"
    assert row["status"] == f"internal:{message}"
    assert row["optimal_utility"] is None


def test_sweep_reports_unknown_algorithm():
    config = SweepConfig(agents=(2,), items=(4,), algorithms=("nope",))
    (row,) = run_sweep(config)
    assert row["status"] == "error:unknown algorithm 'nope'"


def test_sweep_csv_shape():
    config = SweepConfig(agents=(2,), items=(4, 5), seeds=(3,))
    text = sweep_to_csv(run_sweep(config))
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    ok_row = lines[1].split(",")
    assert ok_row[SWEEP_COLUMNS.index("status")] == "ok"
    assert ok_row[SWEEP_COLUMNS.index("elapsed_ms")] == "0.0"


def test_sweep_csv_empty_grid_is_header_only():
    config = SweepConfig(agents=(), items=(4,))
    assert sweep_to_csv(run_sweep(config)) == ",".join(SWEEP_COLUMNS) + "\n"


def test_sweep_timings_are_opt_in():
    config = SweepConfig(agents=(2,), items=(4,))
    elapsed_at = SWEEP_COLUMNS.index("elapsed_ms")
    plain = bench_sweep(config)
    assert plain.splitlines()[1].split(",")[elapsed_at] == "0.0"
    timed = bench_sweep(config, timings=True)
    assert float(timed.splitlines()[1].split(",")[elapsed_at]) >= 0.0


def test_config_from_json_dict_fills_defaults():
    config = SweepConfig.from_json_dict({"agents": [2, 3], "items": [4]})
    assert config.mu_manipulator == (None,)
    assert config.seeds == (1,)
    assert config.algorithms == ("dp",)


def test_config_from_json_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        SweepConfig.from_json_dict({"agents": [2], "items": [4], "color": "red"})
    with pytest.raises(ValueError):
        SweepConfig.from_json_dict({"agents": [2]})


def test_brute_on_correlated_matches_dp_row():
    instance, _ = gen_correlated(4, 3, 5, 2)
    config = SweepConfig(agents=(3,), items=(5,), target_range_max=(2,), seeds=(4,))
    (row,) = run_sweep(config)
    assert row["status"] == "ok"
    assert row["optimal_utility"] == solve_bruteforce_rankings(instance).optimal_utility

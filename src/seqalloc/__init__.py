"""Manipulating sequential allocation: exact solvers, generators, diagnostics.

Agents pick items one at a time along a fixed sequence; everyone picks
greedily by their declared ranking.  One strategic agent may misreport
hers.  This package computes her optimal report exactly (dynamic
programming over reachable states, plus two exhaustive cross-check
solvers), decides whether specific item sets are securable, exports the
problem as an integer program in LP text for external MILP solvers,
generates structured instance families including two clique-hardness
gadgets, and verifies the known bounds on manipulation gain and
state-graph size in one check.  It needs nothing beyond the standard
library; the test suite's MILP oracle, which needs scipy, lives in the
tests only.

Names load on first use: ``import seqalloc`` imports no submodule, and
``seqalloc.solve_dp`` or ``from seqalloc import solve_dp`` imports
``seqalloc.dp`` then.  Each access looks the name up in its submodule
afresh, so a name rebound there (by a test's monkeypatch, say) is what
the package returns.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "AchievabilityCertificate": "achievability",
    "is_achievable": "achievability",
    "solve_bruteforce_rankings": "achievability",
    "solve_subset_enum": "achievability",
    "SWEEP_COLUMNS": "analysis",
    "BoundReport": "analysis",
    "BoundViolationError": "analysis",
    "SweepConfig": "analysis",
    "bench_sweep": "analysis",
    "check_state_bounds": "analysis",
    "run_sweep": "analysis",
    "sweep_to_csv": "analysis",
    "verify_state_invariants": "analysis",
    "MANIPULATOR": "core",
    "Allocation": "core",
    "Instance": "core",
    "InvalidInstanceError": "core",
    "ManipulationResult": "core",
    "ProfileMetrics": "core",
    "ResourceLimitError": "core",
    "bundle_utility": "core",
    "profile_metrics": "core",
    "simulate": "core",
    "truthful_utility": "core",
    "StateGraph": "dp",
    "backward_induction": "dp",
    "build_state_graph": "dp",
    "solve_dp": "dp",
    "state_set_bounds": "dp",
    "GraphInput": "generators",
    "SidonTable": "generators",
    "bundle_class_signature": "generators",
    "gen_clique_reduction": "generators",
    "gen_correlated": "generators",
    "gen_mcc_reduction": "generators",
    "gen_random": "generators",
    "gen_tight_family": "generators",
    "metadata_to_json": "generators",
    "parse_graph": "generators",
    "sidon_table": "generators",
    "GreedyRow": "ilp",
    "IpModel": "ilp",
    "build_model": "ilp",
    "export_lp": "ilp",
    "parse_lp": "ilp",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # Not cached in the package globals: a cached name would outlive a
    # later rebinding in its submodule.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

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
"""

from .achievability import (
    AchievabilityCertificate,
    is_achievable,
    solve_bruteforce_rankings,
    solve_subset_enum,
)
from .analysis import (
    SWEEP_COLUMNS,
    BoundReport,
    BoundViolationError,
    SweepConfig,
    bench_sweep,
    check_state_bounds,
    run_sweep,
    sweep_to_csv,
    verify_state_invariants,
)
from .core import (
    MANIPULATOR,
    Allocation,
    Instance,
    InvalidInstanceError,
    ManipulationResult,
    ProfileMetrics,
    ResourceLimitError,
    bundle_utility,
    profile_metrics,
    simulate,
    truthful_utility,
)
from .dp import (
    StateGraph,
    backward_induction,
    build_state_graph,
    solve_dp,
    state_set_bounds,
)
from .generators import (
    GraphInput,
    SidonTable,
    bundle_class_signature,
    gen_clique_reduction,
    gen_correlated,
    gen_mcc_reduction,
    gen_random,
    gen_tight_family,
    metadata_to_json,
    parse_graph,
    sidon_table,
)
from .ilp import (
    GreedyRow,
    IpModel,
    build_model,
    export_lp,
    parse_lp,
)

__version__ = "0.1.0"

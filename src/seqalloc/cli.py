"""Command-line front end.

Machine-readable output (instance JSON, result JSON, LP text, CSV) goes
to stdout or --out and is byte-identical across runs by default; wall
times appear there only with --timings.  Human-oriented summaries go to
stderr.  Exit codes: 0 success, 2 usage, 3 invalid input, 4 resource
limit exceeded, 5 I/O failure, 6 internal error (a proven bound or a
solver invariant failed, which can only mean a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

# Every subcommand reads or builds an instance, so core loads up front;
# each _cmd_* imports the rest of what it runs, and nothing else loads.
from .core import (
    DEFAULT_MAX_STATES,
    DEFAULT_RANKING_ITEM_LIMIT,
    DEFAULT_SUBSET_BUDGET,
    SOLVERS,
    Instance,
    InvalidInstanceError,
    ResourceLimitError,
    bundle_utility,
    simulate,
    solver,
    truthful_utility,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_RESOURCE = 4
EXIT_IO = 5
EXIT_INTERNAL = 6


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_instance(path: str | None) -> Instance:
    return Instance.from_json(_read_text(path))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    budget = {"dp": args.max_states, "subset": args.enum_budget, "brute": args.brute_limit}[args.algo]
    result = solver(args.algo)(instance, budget)
    _write_text(args.out, result.to_json(timings=args.timings))
    _note(
        f"{args.algo}: optimal utility {result.optimal_utility} "
        f"(truthful {truthful_utility(instance)}) in {result.stats['elapsed_ms']:.1f} ms"
    )
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    ranking = None
    if args.ranking is not None:
        try:
            ranking = [int(token) for token in args.ranking.split(",")]
        except ValueError:
            raise InvalidInstanceError("malformed", f"ranking {args.ranking!r} is not a comma-separated list")
    allocation = simulate(instance, ranking)
    doc = allocation.to_json_dict()
    doc["manipulator_utility"] = bundle_utility(instance, allocation.bundles[0])
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    _note(f"manipulator bundle {sorted(allocation.bundles[0])} worth {doc['manipulator_utility']}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import generators

    if args.type == "random":
        instance, metadata = generators.gen_random(args.seed, args.agents, args.items, args.mu)
    elif args.type == "correlated":
        instance, metadata = generators.gen_correlated(args.seed, args.agents, args.items, args.range_max, args.mu)
    elif args.type == "tight":
        instance, metadata = generators.gen_tight_family(args.scale)
    elif args.type == "clique":
        graph = generators.parse_graph(_read_text(args.graph))
        instance, metadata = generators.gen_clique_reduction(graph, args.k)
    else:
        graph = generators.parse_graph(_read_text(args.graph))
        instance, metadata = generators.gen_mcc_reduction(graph, args.k)
    _write_text(args.out, instance.to_json())
    meta_path = args.meta_out
    if meta_path is None and args.out not in (None, "-"):
        meta_path = args.out + ".meta.json"
    if meta_path is not None:
        _write_text(meta_path, generators.metadata_to_json(metadata))
    _note(
        f"generated {args.type} instance: {instance.num_items} items, "
        f"{instance.num_agents} agents, {instance.manipulator_turns()} manipulator turns"
    )
    return EXIT_OK


def _cmd_export_ilp(args: argparse.Namespace) -> int:
    from .ilp import build_model, export_lp

    instance = _load_instance(args.input)
    model = build_model(instance)
    _write_text(args.out, export_lp(model))
    _note(
        f"exported {model.num_vars} variables, {model.num_eq_rows} equality rows, "
        f"{model.num_greedy_rows} greedy rows"
    )
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    from . import analysis

    instance = _load_instance(args.input)
    report = analysis.check_state_bounds(instance, max_states=args.max_states)
    _write_text(args.out, json.dumps(report.to_json_dict(), indent=2) + "\n")
    ratio = "vacuous" if report.vacuous else str(report.ratio)
    _note(f"bounds ok: ratio {ratio}, {report.distinct_sets} distinct taken sets")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import analysis

    try:
        doc = json.loads(_read_text(args.config))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInstanceError("malformed", f"sweep config is not valid JSON: {exc}")
    config = analysis.SweepConfig.from_json_dict(doc)
    csv_text = analysis.bench_sweep(config, timings=args.timings)
    _write_text(args.out, csv_text)
    _note(f"swept {len(csv_text.splitlines()) - 1} grid points")
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type for counts and budgets: rejects anything below 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqalloc",
        description="Exact manipulation of sequential allocation: solvers, generators, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("--in", dest="input", default=None, help="instance JSON path (default: stdin)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    solve = sub.add_parser("solve", help="compute an optimal manipulation")
    add_io(solve)
    solve.add_argument("--algo", choices=list(SOLVERS), default="dp")
    solve.add_argument("--max-states", type=_positive_int, default=DEFAULT_MAX_STATES)
    solve.add_argument("--enum-budget", type=_positive_int, default=DEFAULT_SUBSET_BUDGET)
    solve.add_argument("--brute-limit", type=_positive_int, default=DEFAULT_RANKING_ITEM_LIMIT)
    solve.add_argument("--timings", action="store_true", help="emit real wall times in the result")
    solve.set_defaults(func=_cmd_solve)

    simulate_cmd = sub.add_parser("simulate", help="replay the protocol for a reported ranking")
    add_io(simulate_cmd)
    simulate_cmd.add_argument("--ranking", default=None, help="comma-separated item indices (default: truthful)")
    simulate_cmd.set_defaults(func=_cmd_simulate)

    generate = sub.add_parser("generate", help="emit a generated instance")
    generate.add_argument("--type", choices=["random", "correlated", "tight", "clique", "mcc"], required=True)
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--agents", type=int, default=3)
    generate.add_argument("--items", type=int, default=6)
    generate.add_argument("--mu", type=int, default=None, help="pin the manipulator's turn count")
    generate.add_argument("--range-max", type=int, default=2, help="rank-range target for --type correlated")
    generate.add_argument("--scale", type=int, default=1000, help="utility scale for --type tight")
    generate.add_argument("--graph", default=None, help="edge-list file for the graph reductions")
    generate.add_argument("--k", type=int, default=3, help="clique size for the graph reductions")
    generate.add_argument("--meta-out", default=None, help="metadata path (defaults next to --out)")
    add_io(generate, with_input=False)
    generate.set_defaults(func=_cmd_generate)

    export = sub.add_parser("export-ilp", help="write the integer program as LP text")
    add_io(export)
    export.set_defaults(func=_cmd_export_ilp)

    check = sub.add_parser("check", help="verify the ratio and state-count bounds")
    add_io(check)
    check.add_argument("--max-states", type=_positive_int, default=DEFAULT_MAX_STATES)
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser("bench", help="run a parameter sweep, emit CSV")
    bench.add_argument("--config", required=True, help="sweep config JSON path")
    bench.add_argument("--timings", action="store_true", help="emit real wall times in the CSV")
    add_io(bench, with_input=False)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInstanceError as exc:
        _note(f"error[{exc.code}]: {exc}")
        return EXIT_INVALID
    except ValueError as exc:
        _note(f"error[invalid]: {exc}")
        return EXIT_INVALID
    except ResourceLimitError as exc:
        _note(f"error[resource-limit]: {exc}")
        return EXIT_RESOURCE
    except RuntimeError as exc:
        _note(f"error[internal]: {exc}")
        return EXIT_INTERNAL
    except OSError as exc:
        _note(f"error[io]: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

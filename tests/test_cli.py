import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from seqalloc import (
    SWEEP_COLUMNS,
    BoundViolationError,
    Instance,
    cli,
    gen_random,
    gen_tight_family,
)

SRC = Path(__file__).resolve().parents[1] / "src"
CLIQUE_GRAPH = "5 5\n1 2\n1 3\n2 3\n3 4\n4 5\n"
MCC_GRAPH = "4 3\n1 3\n1 4\n2 3\ncolor 1 1\ncolor 2 1\ncolor 3 2\ncolor 4 2\n"


def run_cli(*args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "seqalloc", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def example_json(running_example):
    return running_example.to_json()


def test_solve_dp_stdout(example_json):
    proc = run_cli("solve", stdin_text=example_json)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["algorithm"] == "dp"
    assert doc["optimal_utility"] == 7
    assert doc["ranking"] == [2, 1, 0, 3]
    assert doc["bundle"] == [1, 2]
    assert doc["stats"]["elapsed_ms"] == 0.0
    assert "optimal utility 7" in proc.stderr


@pytest.mark.parametrize("algo", ["dp", "subset", "brute"])
def test_solve_other_algorithms(example_json, algo):
    proc = run_cli("solve", "--algo", algo, stdin_text=example_json)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["algorithm"] == algo
    assert doc["optimal_utility"] == 7


def test_solve_is_byte_identical_across_runs_and_threads():
    instance, _ = gen_random(2, 3, 7)
    text = instance.to_json()
    first = run_cli("solve", stdin_text=text)
    second = run_cli("solve", stdin_text=text)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_solve_timings_flag_unzeroes_elapsed(example_json):
    proc = run_cli("solve", "--timings", stdin_text=example_json)
    doc = json.loads(proc.stdout)
    assert doc["stats"]["elapsed_ms"] > 0.0


def test_solve_writes_out_file(example_json, tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli("solve", "--out", str(out), stdin_text=example_json)
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(out.read_text())["optimal_utility"] == 7


def test_simulate_truthful(example_json):
    proc = run_cli("simulate", stdin_text=example_json)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["bundles"] == [[0, 3], [2], [1]]
    assert doc["manipulator_utility"] == 6


def test_simulate_reported_ranking(example_json):
    proc = run_cli("simulate", "--ranking", "2,1,0,3", stdin_text=example_json)
    doc = json.loads(proc.stdout)
    assert doc["bundles"][0] == [1, 2]
    assert doc["manipulator_utility"] == 7


def test_simulate_rejects_garbled_ranking(example_json):
    proc = run_cli("simulate", "--ranking", "2,x", stdin_text=example_json)
    assert proc.returncode == 3
    proc = run_cli("simulate", "--ranking", "0,0,1,2", stdin_text=example_json)
    assert proc.returncode == 3


def test_generate_random_is_deterministic():
    args = ("generate", "--type", "random", "--seed", "5", "--agents", "3", "--items", "6")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    Instance.from_json(first.stdout)


def test_generate_writes_metadata_next_to_out(tmp_path):
    out = tmp_path / "inst.json"
    proc = run_cli("generate", "--type", "random", "--out", str(out))
    assert proc.returncode == 0
    Instance.from_json(out.read_text())
    metadata = json.loads((tmp_path / "inst.json.meta.json").read_text())
    assert metadata["type"] == "random"


def test_generate_respects_meta_out(tmp_path):
    out = tmp_path / "inst.json"
    meta = tmp_path / "meta.json"
    proc = run_cli(
        "generate", "--type", "correlated", "--range-max", "2",
        "--out", str(out), "--meta-out", str(meta),
    )
    assert proc.returncode == 0
    doc = json.loads(meta.read_text())
    assert doc["type"] == "correlated"
    assert doc["target_range_max"] == 2
    assert not (tmp_path / "inst.json.meta.json").exists()


def test_generate_tight_pipes_into_check():
    generated = run_cli("generate", "--type", "tight", "--scale", "1000")
    assert generated.returncode == 0
    checked = run_cli("check", stdin_text=generated.stdout)
    assert checked.returncode == 0
    doc = json.loads(checked.stdout)
    assert doc["bound_ok"] is True
    assert doc["ratio"] == "1997/1000"


def test_generate_clique_from_graph_file(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text(CLIQUE_GRAPH)
    proc = run_cli("generate", "--type", "clique", "--graph", str(graph), "--k", "3")
    assert proc.returncode == 0
    instance = Instance.from_json(proc.stdout)
    assert instance.num_items == 20
    assert instance.num_agents == 12


def test_generate_mcc_from_graph_file(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text(MCC_GRAPH)
    proc = run_cli("generate", "--type", "mcc", "--graph", str(graph), "--k", "2")
    assert proc.returncode == 0
    instance = Instance.from_json(proc.stdout)
    assert instance.num_agents == 8
    assert instance.num_items == 1240


def test_generate_rejects_uncolored_graph_for_mcc(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text(CLIQUE_GRAPH)
    proc = run_cli("generate", "--type", "mcc", "--graph", str(graph), "--k", "2")
    assert proc.returncode == 3


def test_generate_refuses_an_oversized_instance():
    # 2 x 600,000 profile entries exceed the generators' size cap.
    proc = run_cli("generate", "--type", "random", "--agents", "2", "--items", "600000")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.count("error[") == 1
    assert "error[resource-limit]" in proc.stderr


def test_export_ilp(example_json):
    proc = run_cli("export-ilp", stdin_text=example_json)
    assert proc.returncode == 0
    assert proc.stdout.startswith("Maximize\n")
    assert " greedy_3_2: x_3_2 + x_3_1 >= 1\n" in proc.stdout
    assert "16 variables, 8 equality rows, 8 greedy rows" in proc.stderr
    again = run_cli("export-ilp", stdin_text=example_json)
    assert again.stdout == proc.stdout


@pytest.mark.parametrize(
    "generate, digest",
    [
        (None, "547ba2f0818571d337b64f7de306788af91ef3d1fad3cbc1f26ca213f3395c4c"),
        (
            ["--type", "random", "--seed", "3", "--agents", "3", "--items", "40"],
            "0a90d946acf5574d0b0aa9df59a8d98d7894929ad5cd6af262f9a55a01eaf927",
        ),
        (
            ["--type", "correlated", "--seed", "5", "--agents", "4", "--items", "40", "--range-max", "3"],
            "d057c338256f4764dd50f6e8e2ab249df2574ab6cf80200805481a009aa797a3",
        ),
    ],
    ids=["running-example", "random-40", "correlated-40"],
)
def test_export_ilp_bytes_are_pinned(example_json, generate, digest):
    """The SHA-256 of export-ilp's stdout, as the per-term writer printed it."""
    source = example_json if generate is None else run_cli("generate", *generate).stdout
    proc = run_cli("export-ilp", stdin_text=source)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_check_reports_bounds(example_json):
    proc = run_cli("check", stdin_text=example_json)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ratio"] == "7/6"
    assert doc["bound_ok"] is True
    assert doc["distinct_sets"] == 6


def test_bench_runs_configured_sweep(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"agents": [2], "items": [4, 5], "seeds": [1, 2]}))
    proc = run_cli("bench", "--config", str(config))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 5


# Nested past the JSON parser's recursion limit.
DEEP_JSON = "[" * 100_000


def test_bench_rejects_bad_config(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text("{not json")
    assert run_cli("bench", "--config", str(config)).returncode == 3
    config.write_text(json.dumps({"agents": [2], "items": [4], "color": "red"}))
    assert run_cli("bench", "--config", str(config)).returncode == 3
    proc = run_cli("bench", "--config", "-", stdin_text=DEEP_JSON)
    assert proc.returncode == 3
    assert proc.stderr.count("error[") == 1
    assert "error[malformed]" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("document", [{"agents": 3, "items": [4]}, [1]], ids=["scalar-field", "array"])
def test_bench_rejects_malformed_config_without_traceback(tmp_path, document):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(document))
    proc = run_cli("bench", "--config", str(config))
    assert proc.returncode == 3
    assert proc.stderr.count("error[") == 1
    assert "error[malformed]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_code_for_malformed_instance():
    for text in ("{broken", DEEP_JSON):
        proc = run_cli("solve", stdin_text=text)
        assert proc.returncode == 3
        assert proc.stderr.count("error[") == 1
        assert "error[malformed]" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field", ["items", "agents", "sequence", "profile", "utilities", "profile row"])
def test_string_where_a_list_belongs_is_malformed(running_example, field):
    """A string would otherwise be split into characters: "ab" -> items a, b."""
    doc = json.loads(running_example.to_json())
    if field == "profile row":
        doc["profile"][1] = "2301"
    else:
        doc[field] = "ab"
    proc = run_cli("solve", stdin_text=json.dumps(doc))
    assert proc.returncode == 3
    assert proc.stderr.count("error[") == 1
    assert "error[malformed]" in proc.stderr
    assert "Traceback" not in proc.stderr


def _raise(error):
    def solver(*args, **kwargs):
        raise error

    return solver


@pytest.mark.parametrize(
    "command, target, error",
    [
        ("check", "seqalloc.analysis.check_state_bounds", BoundViolationError("state cap m_pow exceeded")),
        (
            "solve",
            "seqalloc.dp.solve_dp",
            RuntimeError("internal error: recovered ranking does not replay to the computed optimum"),
        ),
    ],
    ids=["bound-violation", "dp-replay"],
)
def test_internal_errors_exit_6(monkeypatch, capsys, tmp_path, example_json, command, target, error):
    path = tmp_path / "instance.json"
    path.write_text(example_json)
    monkeypatch.setattr(target, _raise(error))
    assert cli.main([*command.split(), "--in", str(path)]) == cli.EXIT_INTERNAL == 6
    err = capsys.readouterr().err
    assert err.count("error[") == 1
    assert f"error[internal]: {error}" in err


def test_exit_code_for_missing_input_file():
    proc = run_cli("solve", "--in", "/nonexistent/instance.json")
    assert proc.returncode == 5


def test_exit_code_for_resource_limit():
    instance, _ = gen_random(4, 2, 9)
    proc = run_cli("solve", "--algo", "brute", stdin_text=instance.to_json())
    assert proc.returncode == 4
    assert "error[resource-limit]" in proc.stderr


def test_subset_budget_refusal_is_one_short_line():
    instance, _ = gen_random(1, 2, 20_000)
    proc = run_cli("solve", "--algo", "subset", stdin_text=instance.to_json())
    assert proc.returncode == 4
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error[resource-limit]: ")
    assert len(line) < 200


def test_export_ilp_refuses_an_oversized_model():
    # 2 agents x 1,000 items would write ~5e8 variable terms.
    instance, _ = gen_random(1, 2, 1000)
    code, stderr = main_in_process(["export-ilp"], "--in", instance.to_json())
    assert code == 4
    (line,) = stderr.splitlines()
    assert line.startswith("error[resource-limit]: LP text would hold ")


@pytest.mark.parametrize(
    "flag, value",
    [("--max-states", "-5"), ("--enum-budget", "0"), ("--brute-limit", "-1")],
)
def test_non_positive_budgets_are_usage_errors(example_json, flag, value):
    proc = run_cli("solve", flag, value, stdin_text=example_json)
    assert proc.returncode == 2
    assert f"argument {flag}: must be a positive integer" in proc.stderr


def test_exit_code_for_usage_errors():
    assert run_cli("solve", "--no-such-flag").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli().returncode == 2


# Runs ``python -m seqalloc <argv>`` in the calling interpreter and prints
# the exit code and every module loaded.
FOOTPRINT_CHILD = """
import json, runpy, sys
sys.path.insert(0, sys.argv[1])
sys.argv = ["seqalloc", *sys.argv[2:]]
try:
    runpy.run_module("seqalloc", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["generate", "--type", "random"], ["seqalloc.analysis"]),
        (["solve", "--algo", "dp"], ["seqalloc.achievability", "seqalloc.analysis"]),
        (["solve", "--algo", "subset"], ["seqalloc.dp", "seqalloc.analysis"]),
        (["simulate"], ["seqalloc.analysis"]),
        (["export-ilp"], ["seqalloc.analysis"]),
        (["check"], ["seqalloc.generators", "seqalloc.achievability", "csv"]),
    ],
    ids=["generate", "solve-dp", "solve-subset", "simulate", "export-ilp", "check"],
)
def test_subcommands_load_only_what_they_run(tmp_path, example_json, argv, absent):
    """Each subcommand imports its own modules, and no module pulls in dataclasses."""
    source = tmp_path / "instance.json"
    source.write_text(example_json)
    if argv[0] != "generate":
        argv = [*argv, "--in", str(source)]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", FOOTPRINT_CHILD, str(SRC), *argv, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0, proc.stderr
    loaded = set(doc["modules"])
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert loaded.isdisjoint(absent)


# Fuzzing cli.main in-process: a mutated input may be rejected (exit 3) or
# hit a size guard (exit 4), but never escape as an exception or print
# anything but exactly one error line.

INSTANCE_DOCUMENTS = [gen_random(3, 3, 6)[0].to_json(), gen_tight_family(1000)[0].to_json()]
INSTANCE_COMMANDS = [
    ["solve", "--algo", "dp"],
    ["solve", "--algo", "subset"],
    ["solve", "--algo", "brute"],
    ["check"],
    ["simulate"],
    ["export-ilp"],
]
INSTANCE_FIELDS = ["items", "agents", "sequence", "profile", "utilities"]
MUTATION_ALPHABET = '0123456789-[]{},:" ae\n'

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**64) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=6),
    max_leaves=12,
)


@st.composite
def character_mutations(draw, bases, alphabet):
    """A base text after 1-3 truncations, swaps, substitutions, insertions or deletions."""
    text = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(1, 3))):
        if not text:
            break
        at = draw(st.integers(0, len(text) - 1))
        kind = draw(st.sampled_from(["truncate", "swap", "substitute", "insert", "delete"]))
        if kind == "truncate":
            text = text[:at]
        elif kind == "swap":
            other = draw(st.integers(0, len(text) - 1))
            chars = list(text)
            chars[at], chars[other] = chars[other], chars[at]
            text = "".join(chars)
        elif kind == "substitute":
            text = text[:at] + draw(st.sampled_from(alphabet)) + text[at + 1 :]
        elif kind == "insert":
            text = text[:at] + draw(st.text(alphabet, min_size=1, max_size=3)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 8)) :]
    return text


@st.composite
def field_replacements(draw):
    """A base instance document with one field replaced or dropped."""
    doc = json.loads(draw(st.sampled_from(INSTANCE_DOCUMENTS)))
    field = draw(st.sampled_from(INSTANCE_FIELDS))
    if draw(st.booleans()):
        del doc[field]
    else:
        doc[field] = draw(json_values)
    return json.dumps(doc)


def main_in_process(argv, flag, text):
    """Run cli.main with ``text`` as the file behind ``flag``; return (exit, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, flag, path])
    return code, stderr.getvalue()


def assert_clean_exit(code, stderr):
    assert code in (0, 3, 4), stderr
    assert stderr.count("error[") == (0 if code == 0 else 1), stderr


@given(
    st.sampled_from(INSTANCE_COMMANDS),
    character_mutations(INSTANCE_DOCUMENTS, MUTATION_ALPHABET) | field_replacements(),
)
@settings(deadline=None, max_examples=150)
def test_fuzzed_instance_documents_exit_cleanly(command, text):
    assert_clean_exit(*main_in_process(command, "--in", text))


@given(
    st.sampled_from(["clique", "mcc"]),
    st.integers(1, 4),
    character_mutations([CLIQUE_GRAPH, MCC_GRAPH], "0123456789 \n#-"),
)
@settings(deadline=None, max_examples=100)
# Mutated headers past the generator cap (exit 4), which random
# mutations of these small files rarely produce.
@example("clique", 3, CLIQUE_GRAPH.replace("5 5", "5000 5", 1))
@example("clique", 1, CLIQUE_GRAPH.replace("5 5", "1005 5", 1))
def test_fuzzed_graph_files_exit_cleanly(kind, k, text):
    assert_clean_exit(*main_in_process(["generate", "--type", kind, "--k", str(k)], "--graph", text))

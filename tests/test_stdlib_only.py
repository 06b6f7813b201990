"""The package promises to run on the standard library alone.

The test suite's oracles import scipy and numpy, so an import of either
that strays into the package would go unnoticed by every other test.
This one loads the package from the source tree in a fresh, isolated
interpreter that can still see the installed site packages, imports
every submodule, resolves every exported name, runs its main entry
points and every CLI subcommand, and lists every module imported along
the way.  The package imports its submodules lazily, so only an explicit
import of each reaches all of them.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import importlib
import pkgutil
import sys
import tempfile
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import seqalloc
from seqalloc import cli
instance, _ = seqalloc.gen_random(3, 3, 10)
result = seqalloc.solve_dp(instance)
seqalloc.check_state_bounds(instance)
assert seqalloc.is_achievable(instance, result.bundle).achievable
# __main__ is left out: importing it runs the command line.
for module in pkgutil.iter_modules(seqalloc.__path__):
    if module.name != "__main__":
        importlib.import_module("seqalloc." + module.name)
for name in seqalloc.__all__:
    getattr(seqalloc, name)
with tempfile.TemporaryDirectory() as tmp:
    path = tmp + "/instance.json"
    config = tmp + "/sweep.json"
    with open(config, "w") as handle:
        handle.write('{"agents": [2], "items": [5], "algorithms": ["dp", "subset", "brute"]}')
    assert cli.main(["generate", "--type", "random", "--items", "7", "--out", path]) == 0
    runs = [
        ["solve", "--in", path],
        ["solve", "--algo", "subset", "--in", path],
        ["solve", "--algo", "brute", "--in", path],
        ["simulate", "--in", path],
        ["check", "--in", path],
        ["export-ilp", "--in", path],
        ["bench", "--config", config],
    ]
    for argv in runs:
        assert cli.main([*argv, "--out", tmp + "/out"]) == 0, argv
for name in sorted(set(sys.modules) - before):
    print(name)
"""


def test_package_loads_only_stdlib_modules():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = proc.stdout.split()
    assert "seqalloc.dp" in loaded
    foreign = [
        name
        for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "seqalloc"
    ]
    assert foreign == []

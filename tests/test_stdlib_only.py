"""The package promises to run on the standard library alone.

The test suite's oracles import scipy and numpy, so an import of either
that strays into the package would go unnoticed by every other test.
This one loads the package from the source tree in a fresh, isolated
interpreter that can still see the installed site packages, runs its
main entry points and lists every module imported along the way.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import seqalloc
instance, _ = seqalloc.gen_random(3, 3, 10)
result = seqalloc.solve_dp(instance)
seqalloc.check_state_bounds(instance)
assert seqalloc.is_achievable(instance, result.bundle).achievable
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

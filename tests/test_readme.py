"""The README's claims hold for the package as it stands: its library sketch runs,
and a run imports only numpy and the standard library."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# runs each command after the output directory; prints the top-level names imported since
# start-up (site .pth files may import other packages before it)
RUNTIME_IMPORTS = """
import sys
baseline = set(sys.modules)
from sqccqkd import cli
for i, argv in enumerate(sys.argv[2:]):
    assert cli.main([*argv.split(), "--output", f"{sys.argv[1]}/{i}.csv"]) == 0, argv
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - baseline})))
"""


def test_library_sketch_runs():
    """The fenced python block under ``## Library sketch`` names no removed API."""
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL)
    assert block is not None, "no python block under ## Library sketch"
    names = {}
    exec(compile(block.group(1), str(README), "exec"), names)
    assert names["best"].k_star > 0.0 and names["rate"]["feasible"]
    assert len(names["rows"]) == 3 and names["k"].shape == (200,)


def test_runtime_needs_numpy_only(tmp_path):
    """"runtime: numpy only": the commands that reach erfc_inv, both Beta inverse
    branches and beta_quantile import nothing but numpy and the standard library."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", RUNTIME_IMPORTS, str(tmp_path), "optimize --N 1e4 1e8",
         "compare-baseline", "simulate --disclose 0.1 --n 2000"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    imported = done.stdout.splitlines()[-1].split()
    allowed = {*sys.stdlib_module_names, "numpy", "sqccqkd", "cython_runtime"}
    assert {"numpy", "sqccqkd"} <= set(imported)
    assert [n for n in imported if n not in allowed and not n.startswith("_cython_")] == []

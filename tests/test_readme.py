"""The README's library sketch runs against the package as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    """The fenced python block under ``## Library sketch`` names no removed API."""
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL)
    assert block is not None, "no python block under ## Library sketch"
    names = {}
    exec(compile(block.group(1), str(README), "exec"), names)
    assert names["best"].k_star > 0.0 and names["rate"]["feasible"]
    assert len(names["rows"]) == 3 and names["k"].shape == (200,)

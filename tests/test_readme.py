"""The README's Python examples run as written, each in a fresh process
with PYTHONPATH=src, and print what their comments say."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)

# per block, the line each print writes as its comment states it; None
# where the comment describes the line instead (the evidence row's fields)
OUTPUTS = {
    "library": ["pass", None, "True"],
    "frobenius": ["[[Form(nums=[1], den=2)]]", "[(Fraction(2, 1),)]", "[Form(nums=[2], den=1)]"],
}


def test_every_python_block_is_checked():
    assert len(BLOCKS) == len(OUTPUTS)


@pytest.mark.parametrize("block,want", zip(BLOCKS, OUTPUTS.values()), ids=list(OUTPUTS))
def test_readme_example_prints_its_comments(block, want):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
    )
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    assert len(lines) == len(want)
    for line, literal in zip(lines, want):
        if literal is not None:
            assert line == literal
            assert re.search(rf'# "?{re.escape(literal)}"?(  --|\n)', block)

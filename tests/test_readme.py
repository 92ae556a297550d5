"""README's ``python`` block runs from the repository root and prints the expected lines."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"\d+\.\d+")
# One line per print() of the example; floats are compared to 12 digits
# because Python 3.12 made sum() of floats compensated.
EXPECTED = [
    "1.0986122886681098",
    "(1.0986122886681098, 2.1972245773362196)",
    "1/2",
    "3.0",
    "39.06888140575634",
]


def test_library_example_prints_its_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [NUMBER.sub("#", line) for line in lines] == [NUMBER.sub("#", e) for e in EXPECTED]
    for line, expected in zip(lines, EXPECTED):
        got = [float(x) for x in NUMBER.findall(line)]
        assert got == pytest.approx([float(x) for x in NUMBER.findall(expected)], rel=1e-12)

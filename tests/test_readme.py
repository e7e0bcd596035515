"""The Python examples of README.md run against the package as it stands."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = {f"line{TEXT.count(chr(10), 0, m.start()) + 1}": m.group(1)
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)}


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS.values(), ids=BLOCKS.keys())
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})

"""Every Python block of the README runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
#: a print call whose line ends in a comment: the comment is its output line
PRINTED = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs_as_documented(index):
    block = BLOCKS[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
    expected = [PRINTED.match(line) for line in block.splitlines()
                if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, want in zip(printed, expected):
        if want is not None:
            assert line == want.group(1).strip()

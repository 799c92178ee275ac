"""Every ```python block of README.md runs to the end against the package in src/."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    # run in this process, so the package's deprecation filter applies
    exec(compile(code, f"{README.name} python block", "exec"), {"__name__": "__readme__"})

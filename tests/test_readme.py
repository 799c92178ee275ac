"""README.md: every ```python block runs to the end against the package in src/,
and the MIMO scenario-key table lists the keys the CLI accepts."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from urllckit import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_scenario_table_lists_the_schema():
    # the MIMO scenario-key table names each key the CLI accepts, in order
    section = README.read_text().split("### MIMO scenario files", 1)[1]
    keys = re.findall(r"^\| `(\w+)` \|", section.split("\n## ", 1)[0], re.M)
    assert keys == list(cli._MIMO_SCHEMA)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    # run in this process, so the package's deprecation filter applies
    exec(compile(code, f"{README.name} python block", "exec"), {"__name__": "__readme__"})

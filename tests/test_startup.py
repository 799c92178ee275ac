"""Start-up: the CLI imports only what every command runs.

scipy.special costs most of a cold `import urllckit.cli`, and only the
Gaussian-tail and incomplete-gamma primitives of simcore read it, so it is
imported on their first call.  These tests check which modules a fresh
interpreter has loaded, not how long it took, so they do not depend on
the machine's speed.  The package itself binds its modules and version only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import urllckit

ROOT = Path(__file__).resolve().parents[1]
_WATCHED = ("scipy.special", "concurrent.futures")

# one fresh interpreter: import the CLI, then run each command in turn,
# recording after each step which of the watched modules are loaded
_SCRIPT = """
import json, sys
watched = {watched!r}
seen = {{}}
from urllckit import cli
seen["import"] = [m for m in watched if m in sys.modules]
for name, argv in {steps!r}:
    cli.run(argv)
    seen[name] = [m for m in watched if m in sys.modules]
print(json.dumps(seen))
"""

# commands that need no scipy first, so a load is charged to its command
_NO_SCIPY = ("usage error", "access", "multiconn sweep", "framesync sweep")


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    out = tmp_path_factory.mktemp("startup")
    steps = [
        ("usage error", ["multiconn", "sweep", "--bogus", "1"]),
        ("access", ["access", "--scheme", "four_step", "--eps-data", "1e-3",
                    "--out", str(out / "access.json")]),
        ("multiconn sweep", ["multiconn", "sweep", "--out", str(out / "mc.csv")]),
        ("framesync sweep", ["framesync", "sweep", "--nm-min", "8", "--nm-max", "10",
                             "--out", str(out / "fs.csv")]),
        ("fbl sweep", ["fbl", "sweep", "--points", "2", "--out", str(out / "fbl.csv")]),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(watched=_WATCHED, steps=steps)],
        cwd=out, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_neither_scipy_special_nor_a_thread_pool(loaded):
    assert loaded["import"] == []


@pytest.mark.parametrize("command", _NO_SCIPY)
def test_command_leaves_scipy_special_unloaded(loaded, command):
    assert "scipy.special" not in loaded[command]


def test_fbl_sweep_loads_scipy_special_on_first_use(loaded):
    assert "scipy.special" in loaded["fbl sweep"]


def test_package_binds_only_its_modules_and_version():
    modules = ["access", "fbl", "framesync", "mimo", "multiconn", "ratesel", "simcore"]
    assert urllckit.__all__ == [*modules, "__version__"]
    assert isinstance(urllckit.__version__, str)
    # any other name is a submodule, which an import of it binds here
    names = [k for k in vars(urllckit) if not (k.startswith("__") and k.endswith("__"))]
    assert set(modules) <= set(names)
    for name in names:
        assert getattr(urllckit, name).__name__ == f"urllckit.{name}", name

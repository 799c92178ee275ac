"""The benchmark tracer patches program attributes by name.

bench/tracing.py wraps urllckit functions by getattr and puts them back on
uninstall.  A renamed or deleted attribute that it patches breaks every
traced benchmark run, so install it here once and check that uninstall
restores each module exactly.  The same by-name patching is the only reason
a module may import a name it never reads, and only the names listed here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from urllckit import access, cli, fbl, framesync, mimo, multiconn, ratesel

_ROOT = Path(__file__).resolve().parents[1]
_BENCH = _ROOT / "bench"
_MODULES = (access, cli, fbl, framesync, mimo, multiconn, ratesel)
# imported but not read: the tracer patches these module attributes by name
_TRACER_ONLY = {"fbl": {"bisect"}, "ratesel": {"bisect", "reg_lower_gamma"}}


def test_tracer_install_patches_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(_BENCH))
    tracing = importlib.import_module("tracing")
    before = [dict(vars(m)) for m in _MODULES]
    original = fbl.min_bandwidth
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert fbl.min_bandwidth is not original
        fbl.min_bandwidth(fbl.LinkBudget(100.0, 1e5, 1e-3), fbl.PacketSpec(128), 1e-5)
        assert "fbl.min_bandwidth" in {s.name for s in tracer.spans}
    finally:
        tracer.uninstall()
    for module, attrs in zip(_MODULES, before):
        changed = [k for k, v in vars(module).items() if attrs.get(k, v) is not v]
        assert changed == [] and vars(module).keys() == attrs.keys(), module.__name__


def _module_level_imports(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_module_level_import_is_read():
    tracing = (_BENCH / "tracing.py").read_text()
    for path in sorted((_ROOT / "src" / "urllckit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread = {name for name in _module_level_imports(tree) if name not in read}
        assert unread == _TRACER_ONLY.get(path.stem, set()), path.name
        # an exception lapses once the tracer stops patching the name
        for name in unread:
            assert f'_patch({path.stem}, "{name}"' in tracing, (path.name, name)

"""The benchmark tracer patches program attributes by name.

bench/tracing.py wraps urllckit functions by getattr and puts them back on
uninstall.  A renamed or deleted attribute that it patches breaks every
traced benchmark run, so install it here once and check that uninstall
restores each module exactly.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from urllckit import access, cli, fbl, framesync, mimo, multiconn, ratesel

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_MODULES = (access, cli, fbl, framesync, mimo, multiconn, ratesel)


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

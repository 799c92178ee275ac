"""Span tracing from outside the program, and the per-module metrics.

`Tracer.install()` replaces public module attributes with wrappers that
record spans (name, start, end, parent).  Names imported by value are
wrapped in the namespace of the module that calls them.  The `block_fn`
handed to a Monte-Carlo runner is wrapped too, so pool threads report their
per-block busy time.  Spans stay in memory; the caller writes them out.
Nothing is wrapped unless `install()` is called, so untraced runs execute
the program untouched.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class McCall:
    """A Monte-Carlo runner call, kept so it can be re-run at workers=1."""

    runner: object
    args: tuple
    workers: int
    wall: float
    result: tuple


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.mc_calls: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    # ---- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str, parent: int | None = None, **attrs) -> Span:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        span = Span(next(self._ids), name, 0.0, parent=parent, attrs=attrs)
        with self._lock:
            self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def reset(self) -> None:
        self.spans = []
        self.mc_calls = []

    # ---- wrapping ----------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, functools.wraps(orig)(make(orig)))

    def _plain(self, name: str, annotate=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                span = self.begin(name, **(annotate(*args, **kwargs) if annotate else {}))
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.end(span)
            return wrapper
        return make

    def _bisect(self, orig):
        def wrapper(f, *args, **kwargs):
            span = self.begin("simcore.bisect", evals=0)

            def counted(x):
                span.attrs["evals"] += 1
                return f(x)
            try:
                return orig(counted, *args, **kwargs)
            finally:
                self.end(span)
        return wrapper

    def _timed_cpu(self, name: str):
        def make(orig):
            def wrapper(*args, **kwargs):
                span = self.begin(name)
                cpu = time.process_time()
                try:
                    return orig(*args, **kwargs)
                finally:
                    span.attrs["cpu"] = time.process_time() - cpu
                    self.end(span)
            return wrapper
        return make

    def _runner(self, name: str):
        def make(orig):
            def wrapper(trials, block_size, stream, block_fn, workers=1):
                span = self.begin(name, workers=workers)

                def traced_block(rng, start, count):
                    blk = self.begin("simcore.mc.block", parent=span.id)
                    try:
                        return block_fn(rng, start, count)
                    finally:
                        self.end(blk)
                try:
                    result = orig(trials, block_size, stream, traced_block, workers)
                finally:
                    self.end(span)
                self.mc_calls.append(McCall(
                    orig, (trials, block_size, stream, block_fn), workers,
                    span.dur, result))
                return result
            return wrapper
        return make

    def install(self) -> None:
        from urllckit import access, cli, fbl, framesync, mimo, multiconn, ratesel

        self._patch(cli, "run", self._plain("cli.run"))
        self._patch(fbl, "min_bandwidth", self._plain("fbl.min_bandwidth"))
        self._patch(fbl, "success_probability", self._plain(
            "fbl.success_probability",
            lambda budget, pkt, n, *a, **k: {"points": int(np.size(n))}))
        self._patch(fbl, "bisect", self._bisect)
        for fn in access.__all__:
            if fn[0].islower():
                self._patch(access, fn, self._plain(f"access.{fn}"))
        for fn in multiconn.__all__:
            if fn[0].islower():
                self._patch(multiconn, fn, self._plain(f"multiconn.{fn}"))
        self._patch(ratesel, "bisect", self._bisect)
        self._patch(ratesel, "reg_lower_gamma", self._plain("ratesel.reg_lower_gamma"))
        self._patch(ratesel, "run_monte_carlo", self._runner("simcore.run_monte_carlo"))
        for fn in ("ar_epsilon", "pcr_epsilon"):
            self._patch(ratesel, fn, self._plain(f"ratesel.{fn}"))
        self._patch(ratesel, "throughput_ratio", self._plain(
            "ratesel.throughput_ratio",
            lambda scenario, policy, n, mc, *a, **k: {"trials": mc.trials}))
        self._patch(framesync, "occurrence_distribution", self._plain(
            "framesync.occurrence_distribution",
            lambda marker, *a, **k: {"marker": marker.bits}))
        self._patch(framesync, "run_monte_carlo", self._runner("simcore.run_monte_carlo"))
        self._patch(framesync, "search_marker", self._plain("framesync.search_marker"))
        self._patch(framesync, "simulate_sync", self._plain(
            "framesync.simulate_sync",
            lambda marker, payload, snr, mc, *a, **k: {"trials": mc.trials}))
        self._patch(mimo, "draw_channels", self._plain("mimo.draw_channels"))
        self._patch(mimo, "covariance", self._plain("mimo.covariance"))
        self._patch(mimo, "collect_monte_carlo",
                    self._runner("simcore.collect_monte_carlo"))
        self._patch(mimo, "evaluate", self._timed_cpu("mimo.evaluate"))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # ---- speed-up of the thread fan-out ------------------------------------

    def rerun_single_worker(self) -> tuple:
        """Re-run every multi-worker runner call at workers=1.

        Returns (summed wall at workers=1, summed wall as traced, results
        identical).  Identical results are the runners' contract.
        """
        w1 = wn = 0.0
        same = True
        for call in self.mc_calls:
            if call.workers < 2:
                continue
            t0 = time.perf_counter()
            result = call.runner(*call.args, 1)
            w1 += time.perf_counter() - t0
            wn += call.wall
            same &= all(np.array_equal(a, b) for a, b in zip(result, call.result))
        return w1, wn, same


# ---- per-module metrics ----------------------------------------------------

LAYER_METRICS = {
    # name: (unit, better)
    "cli.self_s": ("s", "lower"),
    "simcore.bisect.f_evals": ("count", "lower"),
    "simcore.mc.block_ms": ("ms", "lower"),
    "simcore.mc.parallel_eff": ("ratio", "higher"),
    "simcore.mc.speedup_w2": ("ratio", "higher"),
    "fbl.min_bandwidth.ms": ("ms", "lower"),
    "fbl.points_per_solve": ("count", "lower"),
    "access.s": ("s", "lower"),
    "multiconn.s": ("s", "lower"),
    "ratesel.pcr_epsilon.us": ("us", "lower"),
    "ratesel.throughput_ratio.s": ("s", "lower"),
    "ratesel.trials_per_s": ("trials/s", "higher"),
    "framesync.occurrence_distribution.ms": ("ms", "lower"),
    "framesync.occurrence_distribution.calls": ("count", "lower"),
    "framesync.search.distinct_ratio": ("ratio", "higher"),
    "framesync.simulate_sync.trials_per_s": ("trials/s", "higher"),
    "mimo.evaluate.s": ("s", "lower"),
    "mimo.evaluate.cpu_s": ("s", "lower"),
    "mimo.draw_channels.s": ("s", "lower"),
    "mimo.precode_project_s": ("s", "lower"),
    "mimo.covariance.ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _self_time(span: Span, children: list) -> float:
    """Duration minus the union of the children's intervals inside it."""
    covered, cur_start, cur_end = 0.0, None, None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.dur - covered


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def pass_metrics(spans: list) -> dict:
    """Per-module metrics of one traced pass (0 where a module did no work)."""
    by_id = {s.id: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def under(span, prefix):
        p = by_id.get(span.parent)
        while p is not None:
            if p.name.startswith(prefix):
                return True
            p = by_id.get(p.parent)
        return False

    def top(prefix):
        return sum(s.dur for s in spans if s.name.startswith(prefix) and not under(s, prefix))

    blocks = named("simcore.mc.block")
    runners = [s for s in spans if s.name in ("simcore.run_monte_carlo",
                                               "simcore.collect_monte_carlo")]
    capacity = sum(r.dur * r.attrs["workers"] for r in runners)
    solves = named("fbl.min_bandwidth")
    points = sum(s.attrs["points"] for s in named("fbl.success_probability")
                 if under(s, "fbl.min_bandwidth"))
    tr = named("ratesel.throughput_ratio")
    sims = named("framesync.simulate_sync")
    occ = named("framesync.occurrence_distribution")
    searched = [s.attrs["marker"] for s in occ if under(s, "framesync.search_marker")]
    evaluate = named("mimo.evaluate")
    mimo_blocks = [b for b in blocks
                   if by_id[b.parent].name == "simcore.collect_monte_carlo"]
    return {
        "cli.self_s": sum(_self_time(s, children.get(s.id, [])) for s in named("cli.run")),
        "simcore.bisect.f_evals": sum(s.attrs["evals"] for s in named("simcore.bisect")),
        "simcore.mc.block_ms": 1e3 * _mean(b.dur for b in blocks),
        "simcore.mc.parallel_eff": sum(b.dur for b in blocks) / capacity if capacity else 0.0,
        "fbl.min_bandwidth.ms": 1e3 * _mean(s.dur for s in solves),
        "fbl.points_per_solve": points / len(solves) if solves else 0.0,
        "access.s": top("access."),
        "multiconn.s": top("multiconn."),
        "ratesel.pcr_epsilon.us": 1e6 * _mean(s.dur for s in named("ratesel.pcr_epsilon")),
        "ratesel.throughput_ratio.s": sum(s.dur for s in tr),
        "ratesel.trials_per_s": (sum(s.attrs["trials"] for s in tr) / sum(s.dur for s in tr)
                                 if tr else 0.0),
        "framesync.occurrence_distribution.ms": 1e3 * _mean(s.dur for s in occ),
        "framesync.occurrence_distribution.calls": len(occ),
        "framesync.search.distinct_ratio": (len(set(searched)) / len(searched)
                                            if searched else 0.0),
        "framesync.simulate_sync.trials_per_s": (
            sum(s.attrs["trials"] for s in sims) / sum(s.dur for s in sims) if sims else 0.0),
        "mimo.evaluate.s": sum(s.dur for s in evaluate),
        "mimo.evaluate.cpu_s": sum(s.attrs["cpu"] for s in evaluate),
        "mimo.draw_channels.s": sum(s.dur for s in named("mimo.draw_channels")),
        "mimo.precode_project_s": sum(_self_time(b, children.get(b.id, []))
                                      for b in mimo_blocks),
        "mimo.covariance.ms": 1e3 * _mean(s.dur for s in named("mimo.covariance")),
    }


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def spans_json(spans: list) -> list:
    t0 = min((s.start for s in spans), default=0.0)
    return [{"id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent,
             "attrs": {k: v for k, v in s.attrs.items() if k != "marker"}}
            for s in spans]

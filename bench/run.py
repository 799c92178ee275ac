"""urllckit benchmark: one workload, timed passes, checked outputs.

    python3 bench/run.py --workload calc-sweeps --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  Passes of the workload repeat until `--seconds` is used up; each
pass's outputs are checked against the oracles in `oracles.py`.
A fixed reference computation is timed before the first invocation and
after every invocation of a pass.  With `--trace 0` the last line of
standard output is a JSON object holding the end-to-end metrics; with
`--trace 1`, untraced and traced passes alternate and the object holds the
per-module metrics plus the tracing overhead.
Machine facts, the fault ledger and any failed check go to the lines before
it.  Scratch files live in `.bench_work/` of the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

SETUP_RUNS = 7
MIN_TIMED_PASSES = 3      # untraced passes after the warm-up
MIN_TRACED_PASSES = 2

# size of the reference computation: 1.5-3 ms on the machine of the README
REF_LOOP = 16_000
REF_ARRAY = 8_000
REF_ROUNDS = 10


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import urllckit.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import urllckit.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Wall time of a fixed computation of the benchmark's own.

    An interpreter loop and numpy array arithmetic, the two kinds of work
    the program does.  Timed next to every invocation, it tracks the speed
    the host gives this process at that moment; the program's code does
    not run in it, so no change to the program moves it.
    """
    import numpy as np
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOP):
        acc += (i * 0.5) ** 0.5
    x = np.linspace(0.1, 10.0, REF_ARRAY)
    for _ in range(REF_ROUNDS):
        x = x + 1e-9 * (np.exp(-x) * np.sqrt(x)).sum()
    return time.perf_counter() - t0


def blas_threads():
    """OpenBLAS thread count read from the loaded library, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(workers: int, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workers": workers,
        "seed": seed,
    }


def parse_args(argv):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_pass(ops, tracer=None):
    """Run every op of the workload once.

    Returns the outputs, the pass's wall time (reference computations
    included) and per op (wall s, CPU s, reference s).  The reference
    computation runs before the first op and after every op, and each op
    gets the mean of the two timings around it.  It runs no program code,
    so tracing does not touch it.
    """
    from workloads import OpError
    outputs, times = {}, []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter()
        refs = [reference_seconds()]
        for op in ops:
            t0, c0 = time.perf_counter(), _cpu()
            try:
                outputs[op.name] = op.call(outputs)
            except Exception as exc:  # a crash is reported as a failed check
                outputs[op.name] = OpError(f"{type(exc).__name__}: {exc}")
            wall, cpu = time.perf_counter() - t0, _cpu() - c0
            refs.append(reference_seconds())
            times.append((wall, cpu, (refs[-2] + refs[-1]) / 2))
        total = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs, total, times


def in_reference_units(plain: list, column: int) -> float:
    """Sum over ops of the median over passes of time / reference time."""
    return sum(statistics.median(p[i][column] / p[i][2] for p in plain)
               for i in range(len(plain[0])))


def measure(args) -> dict:
    import tracing
    import workloads
    from oracles import FAULTS, UNEXPECTED

    facts = machine_facts(workloads.WORKERS, args.seed)
    print("facts:", json.dumps(facts, sort_keys=True), flush=True)

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = workloads.Context(args.seed, workdir)
        ops = workloads.BUILDERS[args.workload](ctx)
        tracer = tracing.Tracer() if args.trace else None
        cache: dict = {}
        first = None
        attempted = 0
        ledger = {tag: 0 for tag in [*FAULTS, UNEXPECTED]}
        details: list = []
        plain, traced, layer, setup, passes = [], [], [], [], []
        start = time.perf_counter()
        probing = 0.0  # time spent in set-up probes, kept off the pass clock
        while True:
            # the first pass warms caches and is not timed; with tracing on,
            # untraced and traced passes alternate after it
            use_trace = tracer is not None and len(plain) + len(traced) > 0 \
                and len(traced) < len(plain)
            outputs, total, times = run_pass(ops, tracer if use_trace else None)
            passes.append(total)
            if first is None:
                first = outputs
            elif use_trace:
                traced.append(times)
                layer.append(tracing.pass_metrics(tracer.spans))
            else:
                plain.append(times)
            items = workloads.run_checks(ops, outputs, first, cache)
            attempted += len(items)
            for item in items:
                if not item.ok:
                    ledger[item.fault] += 1
                    if len(details) < 12 and item.name not in {d[0] for d in details}:
                        details.append((item.name, item.fault, item.detail))
            # set-up probes are spread over the run, so that they sample the
            # same machine conditions as the passes
            while tracer is None and len(setup) < SETUP_RUNS and \
                    time.perf_counter() - start - probing >= \
                    len(setup) * args.seconds / SETUP_RUNS:
                setup.append(import_seconds())
                probing += setup[-1]
            elapsed = time.perf_counter() - start - probing
            typical = statistics.median(passes)
            enough = len(plain) >= MIN_TIMED_PASSES and \
                (tracer is None or len(traced) >= MIN_TRACED_PASSES)
            if enough and elapsed + typical > args.seconds:
                break

        while tracer is None and len(setup) < SETUP_RUNS:
            setup.append(import_seconds())
        result = {
            "correct": ledger[UNEXPECTED] == 0,
            "attempted": attempted,
            "failed": sum(ledger.values()),
        }
        walls = [sum(w for w, _, _ in p) for p in plain]
        refs = [r for p in plain + traced for _, _, r in p]
        if tracer is None:
            metrics = {
                "sweep_ref": (in_reference_units(plain, 0), "ref"),
                "sweep_cpu_ref": (in_reference_units(plain, 1), "ref"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
                "setup_s": (statistics.median(setup), "s"),
            }
        else:
            values = tracing.median_metrics(layer)
            w1, wn, same = tracer.rerun_single_worker()
            if not same:
                result["correct"] = False
                details.append(("mc/workers", UNEXPECTED,
                                "result at workers=1 differs from the traced run"))
            values["simcore.mc.speedup_w2"] = w1 / wn if wn else 0.0
            # in reference units, like sweep_ref, then at the run's median speed
            values["trace.overhead_s"] = statistics.median(refs) * (
                in_reference_units(traced, 0) - in_reference_units(plain, 0))
            metrics = {k: (values[k], unit) for k, (unit, _) in tracing.LAYER_METRICS.items()}
            spans_file = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(tracing.spans_json(tracer.spans)))
            print(f"spans of the last traced pass: {spans_file.relative_to(ROOT)}")
        print(f"workload {args.workload}: {len(passes)} passes ({len(plain)} timed "
              f"untraced, {len(traced)} traced) in {time.perf_counter() - start:.1f} s; "
              f"{attempted} checked items, {result['failed']} failed")
        print("  untraced pass walls (s):", " ".join(f"{w:.3f}" for w in walls))
        print(f"  untraced pass wall: fastest {min(walls):.4f} s, median "
              f"{statistics.median(walls):.4f} s")
        print(f"  reference computation: median {statistics.median(refs) * 1e3:.3f} ms, "
              f"fastest {min(refs) * 1e3:.3f} ms, slowest {max(refs) * 1e3:.3f} ms")
        for tag, count in ledger.items():
            label = FAULTS.get(tag, "failures outside the known faults")
            print(f"  fault {tag}: {count // len(passes)} per pass  ({label})")
        for name, tag, detail in details:
            print(f"  FAIL [{tag}] {name}: {detail}")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "urllckit" / "cli.py").is_file():
        print(f"error: no urllckit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import urllckit
    if Path(urllckit.__file__).resolve().parent != SRC / "urllckit":
        print(f"error: urllckit imported from {urllckit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

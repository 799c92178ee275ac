"""The four workloads: program invocations and the checks on their outputs.

A workload is a list of `Op`s.  One pass runs every op's `call` (the timed
program work) and then every op's `check` (untimed).  Each pass repeats the
same ops on the same inputs, so every pass attempts the same checked items.
Inputs are made from the workload seed; the seed reaches the program only
as `--seed` and `angle_seed` values.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc
from oracles import check, failed

WORKLOADS = ("calc-sweeps", "marker-design", "ratesel-mc", "mimo-mc")

# Monte-Carlo workloads run the program's thread fan-out at this width
WORKERS = 2

# per-pass sizes, chosen so that a run of 25 s holds eight or more passes
RATESEL_TRIALS = 10_000
MIMO_TRIALS = 12_288      # six of the runner's 2048-trial blocks
SYNC_TRIALS = 50_000
MARKER_NM = (23, 24)      # brackets the five-nines threshold (24 bits)
MARKER_BUDGET = 100
MARKER_PAYLOAD = 256
FIVE_NINES = 1.0 - 1e-5


@dataclass
class Op:
    """One program invocation and the independent check of what it returned."""

    name: str
    call: Callable[[dict], object]   # gets earlier outputs of the same pass
    check: Callable[[object], list]  # returns oracle Items


@dataclass(frozen=True)
class OpError:
    """An op whose program call raised instead of returning."""

    message: str


@dataclass(frozen=True)
class CliOutput:
    code: int
    files: tuple  # (file name, text) pairs, in write order

    def text(self, name: str) -> str:
        return dict(self.files)[name]

    def bodies(self) -> tuple:
        """File contents without '#' comment lines (which echo paths)."""
        return tuple(
            (n, "".join(l for l in t.splitlines(True) if not l.startswith("#")))
            for n, t in self.files)


def parse_csv(text: str):
    comments, rows = [], []
    header = None
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class Context:
    """Seed, scratch directory and the program's modules for one run."""

    def __init__(self, seed: int, workdir: Path):
        import urllckit.cli
        self.cli = urllckit.cli
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli_op(self, name: str, argv: list, outputs: list,
               check: Callable[[CliOutput], list]) -> Op:
        """Op running `urllckit <argv> --seed S` in process, reading `outputs`."""
        argv = [str(a) for a in argv] + ["--seed", str(self.seed)]

        def call(_earlier):
            code = self.cli.run(argv)
            return CliOutput(code, tuple(
                (o, Path(self.path(o)).read_text()) for o in outputs))
        return Op(name, call, check)


# ---- calc-sweeps -----------------------------------------------------------

FBL_EPS = ("1e-5", "1e-7", "1e-9", "1e-12", "1e-17")
FBL_PACKETS = ((16, 16), (32, 8), (4, 4))
FBL_GAMMA_DB = np.linspace(5.0, 40.0, 20)   # the CLI's default grid
FBL_B0_HZ, FBL_LATENCY_S = 1e5, 1e-3

ACCESS_EPS = ("1e-3", "1e-5", "1e-9", "1e-12", "1e-17")
ACCESS_MAX_ATTEMPTS = 10
ACCESS_LATENCY_S = 1e-3

# the CLI defaults, and a chain with near-perfect cores down to 1e-9 outage
MULTICONN_CHAINS = (
    dict(links=(0.99, 0.9), cores=(0.999, 0.99), far=0.9999,
         grid=(1e-4, 0.05, 50), argv=[]),
    dict(links=(0.99, 0.99999), cores=(1 - 1e-10, 1 - 1e-10), far=1.0,
         grid=(1e-9, 1e-3, 50),
         argv=["--link-rels", "0.99,0.99999",
               "--core-rels", "0.9999999999,0.9999999999", "--far-rel", "1",
               "--outage-min", "1e-9", "--outage-max", "1e-3"]),
)

RATESEL_N = (1, 10, 100, 1000, 10000)
RATESEL_EPS = tuple(10.0 ** -k for k in range(1, 10))
RATESEL_XI = (1e-1, 1e-3, 1e-6)


def _check_fbl(eps_s: str, data_bytes: int, meta_bytes: int):
    eps = float(eps_s)
    data_bits, meta_bits = 8 * data_bytes, 8 * meta_bytes
    tag = f"fbl eps={eps_s} {data_bytes}+{meta_bytes}B"

    def run(out: CliOutput) -> list:
        _, _, rows = parse_csv(out.text("fbl.csv"))
        items = [check(f"{tag}/rows", len(rows) == FBL_GAMMA_DB.size,
                       f"{len(rows)} rows")]
        any_inf = False
        for g_db, row in zip(FBL_GAMMA_DB, rows):
            gamma0 = 10.0 ** (g_db / 10.0)
            b_joint, b_sep = float(row[1]), float(row[2])
            any_inf |= math.isinf(b_joint) or math.isinf(b_sep)
            for mode, b, flag in (("joint", b_joint, row[3]),
                                  ("separate", b_sep, row[4])):
                name = f"{tag}/{g_db:.4g}dB/{mode}"
                if flag != ("0" if math.isinf(b) else "1"):
                    items.append(failed(name, f"feasible flag {flag} for B = {b}"))
                    continue
                items.append(orc.check_min_bandwidth(
                    name, b, eps, gamma0, FBL_B0_HZ, FBL_LATENCY_S,
                    data_bits, meta_bits, mode))
        items.append(check(f"{tag}/exit", out.code == (2 if any_inf else 0),
                           f"exit code {out.code}"))
        return items
    return run


def _check_access(scheme: str, eps_s: str):
    eps = {step: float(eps_s) for step in ("sync", "request", "grant", "data", "ack")}
    tag = f"access {scheme} eps={eps_s}"

    def run(out: CliOutput) -> list:
        doc = json.loads(out.text("access.json"))
        comments, _, rows = parse_csv(out.text("access_cdf.csv"))
        residual = float(next(c for c in comments if c.startswith("residual_error"))
                         .split("=")[1])
        cdf = [(int(k), float(t), float(r)) for k, t, r in rows]
        return [check(f"{tag}/exit", out.code == 0, f"exit code {out.code}"),
                *orc.check_access(tag, scheme, eps, doc["overall_error"], residual,
                                  ACCESS_MAX_ATTEMPTS, cdf, ACCESS_LATENCY_S)]
    return run


def _check_multiconn(chain: dict, tag: str):
    lo, hi, points = chain["grid"]
    grid = np.geomspace(lo, hi, points)   # the CLI's link-outage grid

    def run(out: CliOutput) -> list:
        _, _, rows = parse_csv(out.text("multiconn.csv"))
        items = [check(f"{tag}/rows", len(rows) == 3 * points, f"{len(rows)} rows")]
        for i, (q_s, arch, outage) in enumerate(rows):
            q = grid[i // 3]
            name = f"{tag}/{q:.4g}/{arch}"
            if rel_printed(float(q_s), q):
                exact = orc.multiconn_outage_exact(
                    chain["links"], chain["cores"], chain["far"], arch, 0, q)
                items.append(orc.check_multiconn_row(name, float(outage), exact))
            else:
                items.append(failed(name, f"grid value {q_s} vs {q!r}"))
        return items
    return run


def rel_printed(printed: float, value: float) -> bool:
    """True when a CSV number is `value` printed to 12 significant digits."""
    return orc.rel_err(printed, value) <= 1e-11


def _ratesel_library(_earlier):
    from urllckit import ratesel
    ar = [ratesel.ar_epsilon(n, e) for n in RATESEL_N for e in RATESEL_EPS]
    pcr = [ratesel.pcr_epsilon(n, e, xi)
           for n in RATESEL_N for e in RATESEL_EPS for xi in RATESEL_XI]
    return tuple(ar), tuple(pcr)


def _check_ratesel_library(out) -> list:
    ar, pcr = out
    items = []
    grid = [(n, e) for n in RATESEL_N for e in RATESEL_EPS]
    for (n, e), got in zip(grid, ar):
        items.append(orc.check_ar(f"ar_epsilon n={n} eps={e:g}", n, e, got))
    grid = [(n, e, xi) for n, e in grid for xi in RATESEL_XI]
    for (n, e, xi), got in zip(grid, pcr):
        items.append(orc.check_pcr(f"pcr_epsilon n={n} eps={e:g} xi={xi:g}",
                                   n, e, xi, got))
    return items


def calc_sweeps(ctx: Context) -> list:
    ops = []
    for eps in FBL_EPS:
        for d, m in FBL_PACKETS:
            ops.append(ctx.cli_op(
                f"fbl-{eps}-{d}-{m}",
                ["fbl", "sweep", "--eps", eps, "--data-bytes", d,
                 "--metadata-bytes", m, "--out", ctx.path("fbl.csv")],
                ["fbl.csv"], _check_fbl(eps, d, m)))
    for scheme in orc.ACCESS_STEPS:
        for eps in ACCESS_EPS:
            argv = ["access", "--scheme", scheme]
            for step in ("sync", "request", "grant", "data", "ack"):
                argv += [f"--eps-{step}", eps]
            argv += ["--out", ctx.path("access.json"),
                     "--cdf-out", ctx.path("access_cdf.csv")]
            ops.append(ctx.cli_op(f"access-{scheme}-{eps}", argv,
                                  ["access.json", "access_cdf.csv"],
                                  _check_access(scheme, eps)))
    for i, chain in enumerate(MULTICONN_CHAINS):
        ops.append(ctx.cli_op(
            f"multiconn-{i}",
            ["multiconn", "sweep", *chain["argv"], "--out", ctx.path("multiconn.csv")],
            ["multiconn.csv"], _check_multiconn(chain, f"multiconn chain{i}")))
    ops.append(Op("ratesel-library", _ratesel_library, _check_ratesel_library))
    return ops


# ---- marker-design ---------------------------------------------------------

def _sweep_csv(nm: int) -> str:
    return f"framesync_{nm}.csv"


def _markers(out: CliOutput, nm: int) -> dict:
    comments, _, _ = parse_csv(out.text(_sweep_csv(nm)))
    marks = {}
    for c in comments:
        if c.startswith("N_m = "):
            length, marker = c[len("N_m = "):].split(": marker ")
            marks[int(length)] = marker.strip()
    return marks


@functools.cache
def _exact_counts(marker: str) -> list:
    return orc.occurrence_counts(marker, MARKER_PAYLOAD)


def _check_framesync_sweep(nm_swept: int):
    def run(out: CliOutput) -> list:
        from urllckit import framesync
        _, _, rows = parse_csv(out.text(_sweep_csv(nm_swept)))
        marks = _markers(out, nm_swept)
        items = [check(f"framesync {nm_swept}/exit", out.code == 0, f"exit code {out.code}"),
                 check(f"framesync {nm_swept}/markers", sorted(marks) == [nm_swept],
                       f"marker lengths {sorted(marks)}")]
        by_nm: dict = {}
        for nm_s, l_s, p_s in rows:
            by_nm.setdefault(int(nm_s), []).append((int(l_s), float(p_s)))
        for nm, marker in sorted(marks.items()):
            tag = f"framesync N_m={nm}"
            items.append(check(f"{tag}/length", len(marker) == nm, marker))
            counts = _exact_counts(marker)
            printed = by_nm.get(nm, [])
            for l, p in printed:
                exact = orc.p_ub_list_exact(counts, MARKER_PAYLOAD, l)
                items.append(check(f"{tag}/l={l}", orc.rel_err(p, exact) <= 1e-11,
                                   f"P_UB {p!r} vs exact {float(exact)!r}"))
            values = [p for _, p in sorted(printed)]
            items.append(check(f"{tag}/monotone",
                               len(values) == 4 and values == sorted(values),
                               f"P_UB over l: {values}"))
            dist = framesync.occurrence_distribution(
                framesync.Marker.from_string(marker), MARKER_PAYLOAD)
            mean = sum(i * p for i, p in dist.probs.items())
            want = orc.mean_count_closed(marker, MARKER_PAYLOAD)
            items.append(check(f"{tag}/mean_count", orc.rel_err(mean, want) <= 1e-12,
                               f"mean count {mean!r} vs closed form {float(want)!r}"))
        return items
    return run


def threshold_marker(earlier: dict) -> str:
    """Shortest swept marker meeting five nines at l = 1 (else the longest)."""
    lo, hi = MARKER_NM
    for nm in range(lo, hi + 1):
        out = earlier[f"framesync-sweep-{nm}"]
        _, _, rows = parse_csv(out.text(_sweep_csv(nm)))
        for _, l_s, p_s in rows:
            if l_s == "1" and float(p_s) >= FIVE_NINES:
                return _markers(out, nm)[nm]
    return _markers(out, hi)[hi]


def marker_design(ctx: Context) -> list:
    # one call per marker length, so that each timed call is short
    lo, hi = MARKER_NM
    sweeps = [ctx.cli_op(
        f"framesync-sweep-{nm}",
        ["framesync", "sweep", "--nm-min", nm, "--nm-max", nm,
         "--payload-bits", MARKER_PAYLOAD, "--list-lengths", "1,2,4,8",
         "--budget", MARKER_BUDGET, "--out", ctx.path(_sweep_csv(nm))],
        [_sweep_csv(nm)], _check_framesync_sweep(nm)) for nm in range(lo, hi + 1)]

    def simulate(earlier):
        from urllckit import framesync
        from urllckit.simcore import MonteCarloConfig
        marker = threshold_marker(earlier)
        est = framesync.simulate_sync(
            framesync.Marker.from_string(marker), MARKER_PAYLOAD, None,
            MonteCarloConfig(SYNC_TRIALS, ctx.seed), workers=WORKERS)
        return marker, est

    def check_simulate(out) -> list:
        marker, est = out
        wins = round(est * SYNC_TRIALS)
        p = float(orc.p_ub_list_exact(_exact_counts(marker), MARKER_PAYLOAD, 1))
        return [
            check("simulate_sync/integral", abs(wins - est * SYNC_TRIALS) < 1e-6,
                  f"estimate {est!r} is not a count over {SYNC_TRIALS}"),
            orc.check_binomial("simulate_sync/noiseless", wins, SYNC_TRIALS, p),
        ]

    return [*sweeps, Op("simulate-sync", simulate, check_simulate)]


# ---- ratesel-mc ------------------------------------------------------------

RATESEL_MC_N = (10, 100, 1000, 10000)
RATESEL_MC_EPS = RATESEL_MC_XI = 1e-3
RATESEL_THETA = 10.0


def _check_ratesel_sweep(constraint: str):
    def run(out: CliOutput) -> list:
        _, _, rows = parse_csv(out.text(f"ratesel_{constraint}.csv"))
        items = [check(f"ratesel {constraint}/exit", out.code == 0, f"exit code {out.code}"),
                 check(f"ratesel {constraint}/rows",
                       [r[0] for r in rows] == [constraint] * len(RATESEL_MC_N),
                       f"{len(rows)} rows")]
        eps, xi = RATESEL_MC_EPS, RATESEL_MC_XI
        for kind, n_s, _, _, lam, lo, hi in rows:
            n = int(n_s)
            eps_n = float(orc.ar_epsilon_exact(n, eps)) if kind == "ar" else \
                orc.pcr_epsilon_closed(n, eps, xi)
            want = orc.throughput_ratio_exact(n, eps, eps_n, RATESEL_THETA)
            lam, lo, hi = float(lam), float(lo), float(hi)
            sigma = (hi - lo) / (2 * 1.96)
            items.append(orc.check_within_sigmas(f"ratesel {kind} n={n}", lam, want, sigma))
            items.append(check(f"ratesel {kind} n={n}/ci", lo < lam < hi
                               and abs((lam - lo) - (hi - lam)) <= 1e-9 * hi,
                               f"CI [{lo}, {hi}] around {lam}"))
        return items
    return run


def ratesel_mc(ctx: Context) -> list:
    # one call per constraint, so that each timed call is short
    return [ctx.cli_op(
        f"ratesel-sweep-{kind}",
        ["ratesel", "sweep", "--n-values", ",".join(map(str, RATESEL_MC_N)),
         "--constraints", kind, "--eps", RATESEL_MC_EPS, "--xi", RATESEL_MC_XI,
         "--theta", RATESEL_THETA, "--trials", RATESEL_TRIALS,
         "--workers", WORKERS, "--out", ctx.path(f"ratesel_{kind}.csv")],
        [f"ratesel_{kind}.csv"], _check_ratesel_sweep(kind)) for kind in ("ar", "pcr")]


# ---- mimo-mc ---------------------------------------------------------------

# the README's default scenario, the acceptance gates' 4-antenna rich
# scattering scenario at 10 dB, and the default under time multiplexing
MIMO_SCENARIOS = {
    "default": {},
    "rich4": dict(rx_antennas=4, paths=4, spread_deg=1.0, arrival_spread_deg=120.0,
                  span_db=3.0, rho_db=10.0),
    "time": dict(multiplexing="time"),
}
ZF_METHODS = ("all_sv_coh", "strongest_sv_inst", "all_sv_ncoh", "strongest_sv_av")
LEAK_CHANNELS = 8


def _spec_args(params: dict, angle_seed: int) -> dict:
    keys = ("rx_antennas", "paths", "spread_deg", "arrival_spread_deg", "span_db")
    return {"seed": angle_seed, **{k: params[k] for k in keys if k in params}}


def _check_mimo(ctx: Context, label: str, params: dict, angle_seed: int):
    def run(out: CliOutput) -> list:
        from urllckit import mimo
        tag = f"mimo {label}"
        items = [check(f"{tag}/exit", out.code == 0, f"exit code {out.code}")]
        _, _, per_rows = parse_csv(out.text(f"mimo_{label}.csv"))
        _, _, sinr_rows = parse_csv(out.text(f"mimo_{label}_sinr.csv"))
        items.append(check(f"{tag}/rows", len(per_rows) == 50 and len(sinr_rows) == 5,
                           f"{len(per_rows)} PER rows, {len(sinr_rows)} SINR rows"))
        space = params.get("multiplexing", "space") == "space"
        per: dict = {}
        for method, _, slot, p in per_rows:
            per.setdefault(method, []).append((int(slot), float(p)))
        for method, values in per.items():
            first = values[0][1]
            ok = all(0.0 <= p <= 1.0 for _, p in values)
            for slot, p in values:
                active = slot if space else math.ceil(slot / 2)
                ok &= orc.rel_err(p, first ** active) <= 1e-9 or p == first ** active
            items.append(check(f"{tag}/{method}/per_slots", ok,
                               "PER is not PER(slot 1) to the power of active slots"))
        mean_db = {}
        for method, _, *pct in sinr_rows:
            vals = [float(v) for v in pct]
            mean_db[method] = vals[-1]
            items.append(check(f"{tag}/{method}/quantiles", vals[:-1] == sorted(vals[:-1]),
                               f"SINR quantiles {vals[:-1]}"))
        items.append(check(
            f"{tag}/genie_bound", mean_db["interference_free"] >= mean_db["all_sv_coh"],
            f"interference_free {mean_db['interference_free']} dB < all_sv_coh "
            f"{mean_db['all_sv_coh']} dB"))

        spec = mimo.random_cluster_spec(**_spec_args(params, angle_seed))
        cov = (mimo.covariance(spec, 0), mimo.covariance(spec, 1))
        own, other = spec.clusters
        m, n_rx = spec.tx_antennas, spec.rx_antennas
        a_other = orc.tx_factor(other.departure_deg, other.powers, m)
        f = mimo.build_precoder("all_sv_ncoh", cov[0], cov[1]).weights
        mean, var = orc.ncoh_sinr_moments(f, own.departure_deg, own.arrival_deg,
                                          own.powers, m, n_rx)
        power = 10.0 ** (params.get("rho_db", 0.0) / 10.0) / (2.0 if space else 1.0)
        got = 10.0 ** (mean_db["all_sv_ncoh"] / 10.0)
        items.append(orc.check_within_sigmas(
            f"{tag}/ncoh_mean_sinr", got, power * mean,
            power * math.sqrt(var / MIMO_TRIALS)))

        rng = np.random.default_rng([ctx.seed, angle_seed])
        worst = 0.0
        for _ in range(LEAK_CHANNELS):
            h = mimo.draw_channel(spec, 0, rng)
            for method in ZF_METHODS:
                w = mimo.build_precoder(method, cov[0], cov[1], csi=h).weights
                worst = max(worst, float(np.linalg.norm(a_other.conj().T @ w)))
        items.append(check(f"{tag}/zf_leakage", worst < 1e-10,
                           f"leakage {worst:.3g} into the other terminal"))
        return items
    return run


def mimo_mc(ctx: Context) -> list:
    ops = []
    angle_seed = ctx.seed + 1   # seed 0 keeps the README's default geometry
    for label, params in MIMO_SCENARIOS.items():
        scenario = ctx.workdir / f"scenario_{label}.txt"
        lines = [f"{k} = {v}" for k, v in params.items()]
        scenario.write_text("\n".join(lines + [f"angle_seed = {angle_seed}"]) + "\n")
        ops.append(ctx.cli_op(
            f"mimo-{label}",
            ["mimo", "--scenario", scenario, "--trials", MIMO_TRIALS,
             "--workers", WORKERS, "--out", ctx.path(f"mimo_{label}.csv")],
            [f"mimo_{label}.csv", f"mimo_{label}_sinr.csv"],
            _check_mimo(ctx, label, params, angle_seed)))
    return ops


BUILDERS = {
    "calc-sweeps": calc_sweeps,
    "marker-design": marker_design,
    "ratesel-mc": ratesel_mc,
    "mimo-mc": mimo_mc,
}


def run_checks(ops: list, outputs: dict, first: dict, cache: dict) -> list:
    """Check one pass: oracle verdicts (cached per distinct output) plus
    byte-identity of every CSV/JSON body with the first pass."""
    items = []
    for op in ops:
        out = outputs[op.name]
        key = (op.name, repr(out))
        if isinstance(out, OpError):
            cache[key] = [failed(f"{op.name}/call", out.message)]
        elif key not in cache:
            try:
                cache[key] = op.check(out)
            except Exception as exc:  # a malformed output is a failed check
                cache[key] = [failed(f"{op.name}/parse", f"{type(exc).__name__}: {exc}")]
        items.extend(cache[key])
        if isinstance(out, CliOutput):
            same = out.bodies() == first[op.name].bodies()
        else:
            same = repr(out) == repr(first[op.name])
        items.append(check(f"{op.name}/identical", same,
                           "output differs from the first pass"))
    return items


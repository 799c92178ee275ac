"""End-to-end acceptance checks.

One test per shipped guarantee, each asserting its stated tolerance and
runtime budget and printing a single PASS line (visible with -s).  The
statistical checks run at fixed seeds with 4-sigma tolerances sized in the
module tests; nothing here is tuned to a particular run.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
import pytest

from urllckit import fbl, framesync, mimo, multiconn, ratesel
from urllckit.cli import run as cli_run
from urllckit.simcore import MonteCarloConfig


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


# 1. joint-vs-separate encoding bandwidth sweep ------------------------------

def test_a1_minimum_bandwidth_sweep():
    t0 = perf_counter()
    pkt = fbl.PacketSpec(128, 128)
    eps = 1e-5
    gammas_db = np.linspace(5.0, 40.0, 20)
    n_grid = np.geomspace(2.0, 2.0 ** 22, 2 ** 20)
    bandwidth = {"joint": [], "separate": []}
    for g_db in gammas_db:
        budget = fbl.LinkBudget(10.0 ** (g_db / 10.0), 1e5, 1e-3)
        for mode in ("joint", "separate"):
            b = fbl.min_bandwidth(budget, pkt, eps, mode)
            bandwidth[mode].append(b)
            # exhaustive scan over the same blocklength domain
            succ = fbl.success_probability(budget, pkt, n_grid, mode)
            hits = np.nonzero(succ >= 1.0 - eps)[0]
            if hits.size == 0:
                assert b == math.inf
                continue
            i = int(hits[0])
            n_star = 2.0 * b * budget.latency_s
            lo = n_grid[i - 1] if i > 0 else n_grid[0]
            assert lo * (1.0 - 1e-4) <= n_star <= n_grid[i] * (1.0 + 1e-4)
    joint = bandwidth["joint"]
    sep = bandwidth["separate"]
    assert all(bj <= bs for bj, bs in zip(joint, sep))
    assert all(a >= b for a, b in zip(joint, joint[1:]))
    assert all(a >= b for a, b in zip(sep, sep[1:]))
    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    n_inf = sum(1 for b in sep if b == math.inf)
    _report("minimum-bandwidth sweep",
            f"20 points, joint <= separate everywhere, {n_inf} separate-mode "
            f"points infeasible, solver within one scan cell, {elapsed:.1f}s")


# 2. occurrence distribution vs exhaustive enumeration -----------------------

def test_a2_occurrence_distribution_exhaustive():
    t0 = perf_counter()
    payload = 12
    payloads = (np.arange(2 ** payload)[:, None]
                >> np.arange(payload - 1, -1, -1)) & 1
    for value in range(16):
        bits = tuple((value >> (3 - k)) & 1 for k in range(4))
        marker = framesync.Marker(bits)
        packet = np.hstack([np.tile(bits, (2 ** payload, 1)), payloads])
        counts = np.zeros(2 ** payload, dtype=int)
        for j in range(1, payload + 1):
            counts += np.all(packet[:, j:j + 4] == np.asarray(bits), axis=1)
        hist = np.bincount(counts) / float(2 ** payload)
        dist = framesync.occurrence_distribution(marker, payload)
        assert dist.tail_mass == 0.0
        for c in range(hist.size):
            assert abs(dist.probs.get(c, 0.0) - hist[c]) <= 1e-12
        assert all(c < hist.size for c in dist.probs)
    elapsed = perf_counter() - t0
    assert elapsed < 30.0
    _report("occurrence distribution",
            f"exact match to enumeration for all 16 length-4 markers x "
            f"{2 ** payload} payloads, {elapsed:.1f}s")


# 3. marker length threshold for five-nines synchronization ------------------

def test_a3_marker_length_threshold():
    t0 = perf_counter()
    payload = 256
    threshold = None
    for nm in range(16, 31):
        marker = framesync.search_marker(nm, payload, budget=400, seed=0).marker
        dist = framesync.occurrence_distribution(marker, payload)
        bounds = [framesync.p_ub_list(dist, l) for l in (1, 2, 4, 8)]
        assert all(a <= b + 1e-15 for a, b in zip(bounds, bounds[1:]))
        if threshold is None and bounds[0] >= 1.0 - 1e-5:
            threshold = nm
    assert threshold is not None
    assert 20 <= threshold <= 30
    elapsed = perf_counter() - t0
    assert elapsed < 120.0
    _report("marker length threshold",
            f"first length reaching 1 - 1e-5 is {threshold} bits, list bound "
            f"nondecreasing at every length, {elapsed:.1f}s")


# 4. noiseless detector matches the analytic bound ---------------------------

def test_a4_detector_matches_bound():
    t0 = perf_counter()
    cases = [("10", 14), ("110", 12), ("1010", 14), ("01101", 10),
             ("101100", 14)]
    trials = 1_000_000
    worst = 0.0
    for bits, payload in cases:
        marker = framesync.Marker.from_string(bits)
        p = framesync.p_ub(framesync.occurrence_distribution(marker, payload))
        est = framesync.simulate_sync(marker, payload, None,
                                      MonteCarloConfig(trials, 6), workers=4)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        pull = abs(est - p) / sigma
        worst = max(worst, pull)
        assert pull <= 4.0
    elapsed = perf_counter() - t0
    _report("sync detector vs bound",
            f"{len(cases)} markers at 1e6 trials, worst deviation "
            f"{worst:.2f} sigma, {elapsed:.1f}s")


# 5. multi-connectivity reliability algebra ----------------------------------

def test_a5_multiconnectivity_reliability():
    t0 = perf_counter()
    chain = multiconn.ReliabilityChain(
        (multiconn.Interface(0.99, 0.999), multiconn.Interface(0.9, 0.99)),
        r_far=0.9999)
    r_ifd = multiconn.reliability(chain, "ifd")
    assert r_ifd == pytest.approx(0.99870, abs=1e-5)

    grid = np.geomspace(1e-4, 0.05, 50)
    rows = multiconn.outage_sweep(chain, grid, archs=("dc", "ifd"))
    outage = {(q, arch): v for q, arch, v in rows}
    assert all(outage[(q, "ifd")] <= outage[(q, "dc")] for q in grid)

    rng = np.random.default_rng(23)
    for _ in range(1000):
        l1, l2, c, f = rng.random(4)
        eq = multiconn.ReliabilityChain(
            (multiconn.Interface(l1, c), multiconn.Interface(l2, c)), r_far=f)
        gap = multiconn.reliability(eq, "ifd") - multiconn.reliability(eq, "dc")
        assert abs(gap - f * c * (1.0 - c) * l1 * l2) <= 1e-12
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    _report("multi-connectivity",
            f"baseline ifd = {r_ifd:.6f}, ifd <= dc on all 50 sweep points, "
            f"equal-core identity to 1e-12 on 1000 draws, {elapsed:.1f}s")


# 6. rate selection back-off statistics --------------------------------------

def test_a6_rate_backoff_statistics():
    t0 = perf_counter()
    eps = 1e-3
    xi = 1e-3
    trials = 1_000_000
    worst_ar = 0.0
    worst_pcr = 0.0
    for theta in (1.0, 10.0, 100.0):
        sc = ratesel.RayleighScenario(theta)
        for n in (1, 10, 100):
            ar = ratesel.throughput_ratio(
                sc, ratesel.BackoffPolicy("ar", eps), n,
                MonteCarloConfig(trials, 31), workers=4)
            pull = abs(ar.mean_outage - eps) / ar.mean_outage_se
            worst_ar = max(worst_ar, pull)
            assert pull <= 4.0
            pcr = ratesel.throughput_ratio(
                sc, ratesel.BackoffPolicy("pcr", eps, xi), n,
                MonteCarloConfig(trials, 31), workers=4)
            sigma = math.sqrt(xi * (1.0 - xi) / trials)
            worst_pcr = max(worst_pcr, pcr.violation_fraction - xi)
            assert pcr.violation_fraction <= xi + 4.0 * sigma

    # throughput trends, on a training grid where the analytic margins
    # exceed the Monte-Carlo resolution
    trend_trials = 20_000_000
    sc = ratesel.RayleighScenario(10.0)
    trend = {}
    for kind in ("ar", "pcr"):
        pol = ratesel.BackoffPolicy(kind, eps, xi if kind == "pcr" else None)
        trend[kind] = [ratesel.throughput_ratio(
            sc, pol, n, MonteCarloConfig(trend_trials, 37), workers=4)
            for n in (1, 3, 10)]
    for kind in ("ar", "pcr"):
        seq = trend[kind]
        assert all(r.ci_high < 1.0 for r in seq)
        assert all(a.ci_high < b.ci_low for a, b in zip(seq, seq[1:]))
    assert all(p.ci_high < a.ci_low for p, a in zip(trend["pcr"], trend["ar"]))
    elapsed = perf_counter() - t0
    assert elapsed < 300.0
    ar_ratios = ", ".join(f"{r.ratio:.4f}" for r in trend["ar"])
    _report("rate-selection back-off",
            f"audits within 4 sigma on the 3x3 grid (worst ar pull "
            f"{worst_ar:.2f}), throughput ratios below one and increasing "
            f"(ar: {ar_ratios}), pcr pays more at every n, {elapsed:.1f}s")


# 7. beamforming properties --------------------------------------------------

def _max_leakage(spec, draws: int) -> float:
    cov0 = mimo.covariance(spec, 0)
    cov1 = mimo.covariance(spec, 1)
    ctx = mimo._PrecoderContext(cov0, cov1)
    h = mimo.draw_channels(spec, 0, draws, np.random.default_rng(5))
    worst = 0.0
    for method in mimo.METHODS:
        if method == "interference_free":
            continue
        f = mimo._batched_precoders(method, ctx, h)
        leak = np.linalg.norm(f.conj() @ cov1.tx_support, axis=1)
        worst = max(worst, float(leak.max()))
    return worst


def test_a7_beamforming_properties():
    t0 = perf_counter()
    spec1 = mimo.random_cluster_spec(seed=1)
    spec4 = mimo.random_cluster_spec(
        rx_antennas=4, paths=4, spread_deg=1.0, arrival_spread_deg=120.0,
        span_db=3.0, seed=1)

    # interference nulling, single- and multi-antenna terminals
    leak = max(_max_leakage(spec1, 10_000), _max_leakage(spec4, 10_000))
    assert leak < 1e-10

    # covariance convergence
    worst_cov = 0.0
    for spec in (spec1, spec4):
        exact = mimo.covariance(spec, 0)
        r_tx, r_rx = mimo.empirical_covariance(
            spec, 0, MonteCarloConfig(100_000, 5))
        for est, ref in ((r_tx, exact.r_tx), (r_rx, exact.r_rx)):
            rel = np.linalg.norm(est - ref) / np.linalg.norm(ref)
            worst_cov = max(worst_cov, float(rel))
            assert rel < 0.02

    # single-antenna mean-SINR ordering at 0 dB
    ev1 = mimo.evaluate(spec1, mimo.METHODS, 0.0, "space",
                        MonteCarloConfig(200_000, 3))
    r = ev1.results
    if_res = r["interference_free"]
    coh = r["all_sv_coh"]
    assert if_res.mean_sinr >= coh.mean_sinr
    assert if_res.sinr_ci[0] > coh.sinr_ci[1]
    for sub in ("strongest_sv_inst", "all_sv_ncoh", "strongest_sv_av"):
        assert coh.mean_sinr >= r[sub].mean_sinr

    # four-antenna terminals in rich local scattering: the non-coherent
    # superposition wins the PER race at every matched slot count
    zf = tuple(m for m in mimo.METHODS if m != "interference_free")
    ev4 = mimo.evaluate(spec4, zf, 10.0, "space",
                        MonteCarloConfig(100_000, 3), slots=10)
    ncoh = ev4.results["all_sv_ncoh"].per_slot
    for other in zf:
        if other == "all_sv_ncoh":
            continue
        assert np.all(ncoh < ev4.results[other].per_slot)
    elapsed = perf_counter() - t0
    assert elapsed < 300.0
    _report("beamforming",
            f"max nulling leakage {leak:.1e}, worst covariance error "
            f"{100 * worst_cov:.2f}%, SINR ordering with separated CIs, "
            f"non-coherent lowest PER at all 10 slots, {elapsed:.1f}s")


# 8. CLI determinism ---------------------------------------------------------

def _body(path) -> str:
    return "\n".join(ln for ln in path.read_text().splitlines()
                     if not ln.startswith("#"))


def test_a8_cli_determinism(tmp_path):
    t0 = perf_counter()
    scn = tmp_path / "scenario.txt"
    scn.write_text("rx_antennas = 4\npaths = 4\nspread_deg = 1\n"
                   "arrival_spread_deg = 120\nspan_db = 3\nrho_db = 10\n")
    sweeps = {
        "fbl": ["fbl", "sweep"],
        "framesync": ["framesync", "sweep", "--nm-min", "16", "--nm-max",
                      "20", "--budget", "120"],
        "mimo": ["mimo", "--scenario", str(scn), "--trials", "20000"],
        "multiconn": ["multiconn", "sweep"],
        "ratesel": ["ratesel", "sweep", "--trials", "100000",
                    "--n-values", "1,10"],
        "access": ["access", "--scheme", "four_step", "--eps-data", "1e-4"],
    }
    for name, args in sweeps.items():
        runs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{name}_{tag}.csv"
            argv = list(args) + ["--workers", workers]
            if name == "access":
                argv += ["--out", str(tmp_path / f"{name}_{tag}.json"),
                         "--cdf-out", str(out)]
            else:
                argv += ["--out", str(out)]
            code = cli_run(argv)
            assert code in (0, 2)
            bodies = [_body(out)]
            if name == "mimo":
                bodies.append(_body(tmp_path / f"{name}_{tag}_sinr.csv"))
            runs.append(bodies)
        assert runs[0] == runs[1] == runs[2]
    elapsed = perf_counter() - t0
    _report("cli determinism",
            f"all {len(sweeps)} subcommands byte-identical across reruns "
            f"and worker counts, {elapsed:.1f}s")

"""Every public entry point checks its counts, probabilities and positive
parameters through the simcore rules, and names the parameter it rejects."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from urllckit import access, fbl, framesync, mimo, multiconn, ratesel
from urllckit.simcore import MonteCarloConfig, SeededStream, run_monte_carlo

_MARKER = framesync.Marker.from_string("1011")
_DIST = framesync.occurrence_distribution(_MARKER, 16)
_CHAIN = multiconn.ReliabilityChain(
    (multiconn.Interface(0.99, 0.999), multiconn.Interface(0.9, 0.99)), r_far=0.9999)
_BUDGET = fbl.LinkBudget(100.0, 1e5, 1e-3)
_PACKET = fbl.PacketSpec(128, 0)
_MC = MonteCarloConfig(1000, 0)


def _draw_block(rng, start, count):
    return (rng.random(count).sum(), count)


def _count(label, name, call, k):
    # a fractional and an integral float are both rejected; k itself passes
    return pytest.param(name, call, k, (k + 0.5, float(k)), id=f"{label}-{name}")


def _probability(label, name, call, valid, strict=False):
    bad = (math.nan, -0.1, 1.5, math.inf, "0.5", None) + ((0.0, 1.0) if strict else ())
    return pytest.param(name, call, valid, bad, id=f"{label}-{name}")


def _positive(label, name, call, valid):
    return pytest.param(name, call, valid, (math.inf, math.nan, 0.0, -1.0),
                        id=f"{label}-{name}")


_ROWS = [
    _count("ar_epsilon", "n", lambda n: ratesel.ar_epsilon(n, 1e-3), 100),
    _count("ar_outage_sup", "n", lambda n: ratesel.ar_outage_sup(n, 1e-3), 100),
    _count("pcr_epsilon", "n", lambda n: ratesel.pcr_epsilon(n, 1e-3, 1e-3), 100),
    _count("throughput_ratio", "n", lambda n: ratesel.throughput_ratio(
        ratesel.RayleighScenario(10.0), ratesel.BackoffPolicy("ar", 1e-3), n, _MC), 100),
    _count("alternating", "n_bits", framesync.Marker.alternating, 5),
    _count("occurrence_distribution", "payload_bits", lambda n: (
        framesync.occurrence_distribution(_MARKER, n).probs), 12),
    _count("occurrence_distribution", "count_cap", lambda c: (
        framesync.occurrence_distribution(_MARKER, 16, count_cap=c).tail_mass), 1),
    _count("p_ub_list", "list_len", lambda l: framesync.p_ub_list(_DIST, l), 2),
    _count("search_marker", "n_bits", lambda n: framesync.search_marker(n, 16, budget=64), 6),
    _count("search_marker", "budget", lambda b: framesync.search_marker(12, 16, budget=b), 20),
    _count("simulate_sync", "payload_bits", lambda n: framesync.simulate_sync(
        _MARKER, n, None, _MC), 12),
    _count("ula_steering", "n_antennas", lambda n: mimo.ula_steering([0.0, 30.0], n), 4),
    _count("random_cluster_spec", "paths", lambda p: mimo.random_cluster_spec(4, paths=p), 3),
    _count("outage_sweep", "vary_index", lambda i: multiconn.outage_sweep(
        _CHAIN, [1e-3], vary_index=i), 1),
    _count("run_monte_carlo", "trials", lambda t: run_monte_carlo(
        t, 4, SeededStream(0), _draw_block), 10),
    _count("run_monte_carlo", "block_size", lambda b: run_monte_carlo(
        10, b, SeededStream(0), _draw_block), 4),
    _probability("Interface", "r_link", lambda p: multiconn.Interface(p, 0.99), 0.99),
    _probability("Interface", "r_core", lambda p: multiconn.Interface(0.99, p), 0.99),
    _probability("ReliabilityChain", "r_far", lambda p: multiconn.ReliabilityChain(
        _CHAIN.interfaces, r_far=p), 0.9999),
    _probability("outage_sweep", "link outage",
                 lambda q: multiconn.outage_sweep(_CHAIN, [1e-3, q]), 1e-2),
    _probability("AccessErrorProfile", "sync",
                 lambda p: access.AccessErrorProfile(eps_sync=p), 1e-5),
    _probability("RetransmissionModel", "eps_attempt", lambda p: access.RetransmissionModel(
        eps_attempt=p, attempt_latency_s=1e-3, max_attempts=3), 1e-2),
    _probability("ar_epsilon", "eps", lambda p: ratesel.ar_epsilon(100, p), 1e-3, True),
    _probability("ar_outage_sup", "eps_n", lambda p: ratesel.ar_outage_sup(100, p), 1e-3, True),
    _probability("pcr_epsilon", "eps", lambda p: ratesel.pcr_epsilon(100, p, 1e-3), 1e-3, True),
    _probability("pcr_epsilon", "xi", lambda p: ratesel.pcr_epsilon(100, 1e-3, p), 1e-3, True),
    _probability("BackoffPolicy", "eps", lambda p: ratesel.BackoffPolicy("ar", p), 1e-3, True),
    _probability("BackoffPolicy", "xi", lambda p: ratesel.BackoffPolicy("pcr", 1e-3, p),
                 1e-3, True),
    _probability("min_bandwidth", "eps_target",
                 lambda p: fbl.min_bandwidth(_BUDGET, _PACKET, p), 1e-5, True),
    _positive("LinkBudget", "gamma0", lambda v: fbl.LinkBudget(v, 1e5, 1e-3), 10.0),
    _positive("LinkBudget", "b0_hz", lambda v: fbl.LinkBudget(10.0, v, 1e-3), 1e5),
    _positive("LinkBudget", "latency_s", lambda v: fbl.LinkBudget(10.0, 1e5, v), 1e-3),
    _positive("RayleighScenario", "theta", ratesel.RayleighScenario, 10.0),
    _positive("RetransmissionModel", "attempt_latency_s", lambda v: access.RetransmissionModel(
        eps_attempt=0.1, attempt_latency_s=v, max_attempts=3), 1e-3),
    _positive("PathCluster", "powers", lambda v: mimo.PathCluster(
        (0.0, 5.0), (10.0, 12.0), (1.0, v)), 0.5),
]


@pytest.mark.parametrize("name,call,valid,bad", _ROWS)
def test_entry_point_rejects_invalid_input_by_name(name, call, valid, bad):
    for value in bad:
        with pytest.raises(ValueError, match=rf"\b{re.escape(name)} must be"):
            call(value)
    expected = call(valid)
    if isinstance(valid, int):
        # a numpy integer count is the same count
        np.testing.assert_equal(call(np.int64(valid)), expected)

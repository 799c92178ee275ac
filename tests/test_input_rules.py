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
_SPEC = mimo.random_cluster_spec(seed=1)


def _draw_block(rng, start, count):
    return (rng.random(count).sum(), count)


def _count(label, name, call, k):
    # a fractional and an integral float are both rejected, and so is a
    # boolean, though True == 1; k itself passes
    return pytest.param(name, call, k, (k + 0.5, float(k), True, False),
                        id=f"{label}-{name}")


def _probability(label, name, call, valid, strict=False):
    # a boolean is no probability, though True == 1 and False == 0
    bad = (math.nan, -0.1, 1.5, math.inf, "0.5", None, True, False, np.True_,
           np.False_) + ((0.0, 1.0) if strict else ())
    return pytest.param(name, call, valid, bad, id=f"{label}-{name}")


def _positive(label, name, call, valid):
    return pytest.param(name, call, valid, (math.inf, math.nan, 0.0, -1.0),
                        id=f"{label}-{name}")


def _nonnegative(label, name, call, valid):
    return pytest.param(name, call, valid, (math.inf, math.nan, -1.0, "1"),
                        id=f"{label}-{name}")


def _finite(label, name, call, valid):
    return pytest.param(name, call, valid, (math.inf, -math.inf, math.nan, "1"),
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
    _count("p_ub_list", "list_len", lambda l: framesync.p_ub_list(_DIST, l), 2),
    _count("search_marker", "n_bits", lambda n: framesync.search_marker(n, 16, budget=64).marker, 6),
    _count("search_marker", "budget", lambda b: framesync.search_marker(12, 16, budget=b).marker, 20),
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
    _probability("AccessErrorProfile", "eps_sync",
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
    # a string, bytes or a boolean deadline used to read as a number of seconds
    pytest.param("deadline_s", access.RetransmissionModel(
        eps_attempt=0.1, attempt_latency_s=1e-3, max_attempts=5).reliability_at, 2e-3,
        ("2e-3", True, b"3e-3", ["2e-3", "1"], np.True_, [True, False], 2e-3j, None),
        id="reliability_at-deadline_s"),
    _positive("RetransmissionModel", "attempt_latency_s", lambda v: access.RetransmissionModel(
        eps_attempt=0.1, attempt_latency_s=v, max_attempts=3), 1e-3),
    _positive("PathCluster", "powers", lambda v: mimo.PathCluster(
        (0.0, 5.0), (10.0, 12.0), (1.0, v)), 0.5),
    _positive("outage_probability", "theta", lambda v: ratesel.outage_probability(
        [10.0, v], 1.0), 5.0),
    _positive("outage_capacity", "theta", lambda v: ratesel.outage_capacity(
        [10.0, v], 1e-3), 5.0),
    _probability("outage_capacity", "eps", lambda p: ratesel.outage_capacity(
        10.0, p), 1e-3, True),
    _nonnegative("outage_probability", "rate", lambda v: ratesel.outage_probability(
        10.0, [1.0, v]), 0.0),
    _nonnegative("ml_estimate", "samples", lambda v: ratesel.ml_estimate([1.0, v]), 0.0),
    _nonnegative("random_cluster_spec", "spread_deg", lambda v: mimo.random_cluster_spec(
        4, paths=3, spread_deg=v), 0.0),
    _nonnegative("random_cluster_spec", "arrival_spread_deg", lambda v: (
        mimo.random_cluster_spec(4, paths=3, arrival_spread_deg=v)), 90.0),
    _nonnegative("random_cluster_spec", "span_db", lambda v: mimo.random_cluster_spec(
        4, paths=3, span_db=v), 0.0),
    # one center per terminal: a third was dropped, a single one built one cluster
    pytest.param("departure_centers_deg", lambda v: mimo.random_cluster_spec(
        4, paths=3, departure_centers_deg=v), (-6.0, 6.0),
        ((-6.0, 6.0, 40.0), (-6.0,), ()), id="random_cluster_spec-departure_centers_deg"),
    pytest.param("arrival_centers_deg", lambda v: mimo.random_cluster_spec(
        4, paths=3, arrival_centers_deg=v), (-30.0, 30.0),
        ((-30.0, 30.0, 0.0), [30.0], np.zeros(3)), id="random_cluster_spec-arrival_centers_deg"),
    _finite("PathCluster", "departure_deg", lambda v: mimo.PathCluster(
        (0.0, v), (10.0, 12.0), (1.0, 0.5)), -5.0),
    _finite("PathCluster", "arrival_deg", lambda v: mimo.PathCluster(
        (0.0, 5.0), (v, 12.0), (1.0, 0.5)), -10.0),
    # NaN and inf blocklengths, SNRs and payloads used to read 0.5 or 0.0
    _positive("error_prob", "n", lambda v: fbl.error_prob(v, 1.0, 10), 10.0),
    _nonnegative("error_prob", "gamma", lambda v: fbl.error_prob(10, v, 10), 1.0),
    _nonnegative("error_prob", "bits", lambda v: fbl.error_prob(10, 1.0, v), 10.0),
    _nonnegative("awgn_params", "gamma", fbl.awgn_params, 1.0),
    _positive("packet_error", "n", lambda v: fbl.packet_error(_BUDGET, _PACKET, v), 300.0),
    _positive("packet_error-separate", "n", lambda v: fbl.packet_error(
        _BUDGET, _PACKET, [300.0, v], "separate"), 300.0),
    _positive("success_probability", "n", lambda v: fbl.success_probability(
        _BUDGET, _PACKET, v), 300.0),
    # True is neither 1 dB nor a noise level of 1.0; below about -3073 dB
    # the power per user is subnormal, and below -3233 dB it is 0
    pytest.param("rho_db", lambda v: mimo.evaluate(
        _SPEC, ("all_sv_coh",), v, "space", MonteCarloConfig(10, 0)), 0.0,
        (math.nan, math.inf, -math.inf, 4000.0, -3075.0, -4000.0, "5", None, True,
         np.True_),
        id="evaluate-rho_db"),
    # no method leaves nothing to evaluate
    pytest.param("methods", lambda v: mimo.evaluate(
        _SPEC, v, 0.0, "space", MonteCarloConfig(10, 0)), ("all_sv_coh",), ((), []),
        id="evaluate-methods"),
    pytest.param("estimation_noise_std", lambda v: mimo.evaluate(
        _SPEC, ("strongest_sv_inst",), 0.0, "space", MonteCarloConfig(10, 0),
        estimation_noise_std=v), 0.5,
        (math.nan, math.inf, -1.0, "1", True, np.True_, [0.5], np.array([0.5])),
        id="evaluate-estimation_noise_std"),
    # a real number whose noise level 10^(-snr_db/20) is finite; +inf means none
    pytest.param("snr_db", lambda v: framesync.simulate_sync(_MARKER, 12, v, _MC), math.inf,
                 (math.nan, -math.inf, -1e4, "8", True, np.True_, 8j, [8.0], np.array(8.0)),
                 id="simulate_sync-snr_db"),
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

"""Finite-blocklength error calculus and the minimum-bandwidth solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from urllckit.fbl import (
    LOG2E,
    LinkBudget,
    PacketSpec,
    asymptotic_bits,
    awgn_params,
    error_prob,
    min_bandwidth,
    packet_error,
    snr_at_bandwidth,
    success_probability,
)
from urllckit.simcore import union_error

# reference values computed with mpmath at 40 decimal digits
_CV_REFERENCE = [
    (0.5, 0.29248125036057809, 0.5781580502793355),
    (1.0, 0.5, 0.78051336787710292),
    (10.0, 1.7297158093186486, 1.0320837922341857),
    (100.0, 3.3291057413758974, 1.040582472613332),
]

_ERROR_REFERENCE = [
    (200, 1.0, 100, 0.3798409656450689),
    (100, 0.5, 20, 0.0491495643424561),
    (1000, 10.0, 1500, 1.380624212882845e-13),
    (64, 4.0, 120, 0.9999999534768591),
]


@pytest.mark.parametrize("gamma,c_ref,v_ref", _CV_REFERENCE)
def test_awgn_params_reference(gamma, c_ref, v_ref):
    c, v = awgn_params(gamma)
    assert c == pytest.approx(c_ref, rel=1e-12)
    assert v == pytest.approx(v_ref, rel=1e-12)


def test_awgn_params_limits():
    assert awgn_params(0.0) == (0.0, 0.0)
    # dispersion saturates at log2(e)^2 / 2
    _, v = awgn_params(1e12)
    assert v == pytest.approx(LOG2E ** 2 / 2.0, rel=1e-11)
    with pytest.raises(ValueError):
        awgn_params(-0.1)


def test_awgn_params_vectorized():
    c, v = awgn_params(np.array([0.5, 1.0]))
    assert c[1] == 0.5
    assert v[0] == pytest.approx(0.5781580502793355, rel=1e-12)


@pytest.mark.parametrize("n,gamma,bits,expected", _ERROR_REFERENCE)
def test_error_prob_reference(n, gamma, bits, expected):
    assert error_prob(n, gamma, bits) == pytest.approx(expected, rel=1e-12, abs=0)


def test_error_prob_monotone_in_blocklength():
    ns = np.geomspace(16, 2 ** 20, 200)
    for gamma in (0.5, 1.0, 10.0):
        eps = error_prob(ns, gamma, 100.0)
        assert np.all(np.diff(eps) <= 1e-18)


def test_error_prob_monotone_in_bits():
    eps = error_prob(500, 1.0, np.linspace(1.0, 400.0, 100))
    assert np.all(np.diff(eps) >= 0.0)


def test_error_prob_monotone_in_snr():
    eps = error_prob(400, np.geomspace(0.1, 100.0, 200), 150.0)
    assert np.all(np.diff(eps) <= 0.0)


def test_error_prob_zero_dispersion_threshold():
    # gamma = 0 carries nothing: error is 1 whenever bits exceed the
    # 0.5*log2(n) slack and 0 otherwise
    assert error_prob(200, 0.0, 100) == 1.0
    assert error_prob(1024, 0.0, 1) == 0.0


def test_error_prob_validation():
    with pytest.raises(ValueError):
        error_prob(0, 1.0, 10)
    with pytest.raises(ValueError):
        error_prob(10, 1.0, -1)


def test_link_budget_channel_uses_and_snr():
    budget = LinkBudget(10.0, 1e5, 1e-3)
    assert budget.channel_uses(1e5) == 200.0
    assert snr_at_bandwidth(budget, 1e5) == 10.0
    assert snr_at_bandwidth(budget, 2e5) == 5.0
    out = snr_at_bandwidth(budget, np.array([1e5, 1e6]))
    assert out[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        snr_at_bandwidth(budget, 0.0)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(0.0, 1e5, 1e-3)
    with pytest.raises(ValueError):
        LinkBudget(1.0, 1e5, 0.0)


@pytest.mark.parametrize("fields,message", [
    ((math.inf, 1e5, 1e-3), "gamma0 must be finite, got inf"),
    ((math.nan, 1e5, 1e-3), "gamma0 must be positive, got nan"),
    ((10.0, math.inf, 1e-3), "b0_hz must be finite, got inf"),
    ((10.0, 1e5, math.inf), "latency_s must be finite, got inf"),
    ((np.array([1.0, math.inf, 2.0]), 1e5, 1e-3), "gamma0 must be finite, got inf"),
    ((np.array([1.0, 2.0, math.nan]), 1e5, 1e-3), "gamma0 must be positive, got nan"),
    ((np.array([[1.0, -2.0]]), 1e5, 1e-3), "gamma0 must be positive, got -2.0"),
    # each field finite, but gamma0 * B0 * T overflows: the capacity
    # ceiling would be inf and never fire
    ((1e4, 1e5, 1e300), "overflows"),
    ((np.array([10.0, 1e307]), 1e5, 1e-3), "overflows"),
])
def test_link_budget_rejects_non_finite_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        LinkBudget(*fields)


def test_asymptotic_bits_reference():
    budget = LinkBudget(10.0, 1e5, 1e-3)
    assert asymptotic_bits(budget) == pytest.approx(1442.6950408889634, rel=1e-13)


def test_packet_spec_from_bytes():
    pkt = PacketSpec.from_bytes(16, 16)
    assert pkt.data_bits == 128
    assert pkt.metadata_bits == 128
    assert pkt.total_bits == 256


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(0, 0)
    with pytest.raises(ValueError):
        PacketSpec(-1, 8)
    for bad in (2.5, 8.0, math.nan):
        with pytest.raises(ValueError, match="data_bits"):
            PacketSpec(bad)
        with pytest.raises(ValueError, match="metadata_bits"):
            PacketSpec(8, bad)
    pkt = PacketSpec(np.int64(8), np.int32(0))
    assert pkt.total_bits == 8 and type(pkt.data_bits) is int


def test_success_probability_matches_error_calculus():
    budget = LinkBudget(10.0, 1e5, 1e-3)
    pkt = PacketSpec(128, 128)
    n = 4000.0
    gamma = 10.0 * 2.0 * 1e5 * 1e-3 / n
    joint = success_probability(budget, pkt, n, "joint")
    assert joint == pytest.approx(1.0 - error_prob(n, gamma, 256), rel=1e-12)
    sep = success_probability(budget, pkt, n, "separate")
    expected = (1.0 - error_prob(n / 2, gamma, 128)) ** 2
    assert sep == pytest.approx(expected, rel=1e-12)


def test_success_probability_mode_validation():
    budget = LinkBudget(10.0, 1e5, 1e-3)
    with pytest.raises(ValueError):
        success_probability(budget, PacketSpec(8), 100.0, "both")


def test_min_bandwidth_reaches_target():
    budget = LinkBudget(10.0, 1e5, 1e-3)
    pkt = PacketSpec(128, 128)
    for mode in ("joint", "separate"):
        b = min_bandwidth(budget, pkt, 1e-5, mode)
        assert math.isfinite(b)
        n = 2.0 * b * budget.latency_s
        s = success_probability(budget, pkt, n, mode)
        assert s == pytest.approx(1.0 - 1e-5, abs=1e-8)


def test_packet_error_is_the_complement_of_success():
    budget = LinkBudget(10.0, 1e5, 1e-3)
    pkt = PacketSpec(128, 128)
    n = np.array([3000.0, 4000.0, 6000.0])
    gamma = 10.0 * 2.0 * 1e5 * 1e-3 / n
    assert packet_error(budget, pkt, n, "joint") == pytest.approx(
        error_prob(n, gamma, 256), rel=1e-15, abs=0)
    e = error_prob(n / 2, gamma, 128)
    assert packet_error(budget, pkt, n, "separate") == pytest.approx(
        2 * e - e * e, rel=1e-12, abs=0)
    for mode in ("joint", "separate"):
        assert success_probability(budget, pkt, n, mode) == pytest.approx(
            1.0 - packet_error(budget, pkt, n, mode), rel=1e-15)


@pytest.mark.parametrize("pkt", [PacketSpec(128, 128), PacketSpec(256, 64),
                                 PacketSpec(32, 0), PacketSpec(0, 8)])
@pytest.mark.parametrize("gamma0,n", [
    (10.0, 4000.0),
    (10.0, np.geomspace(2.0, 2.0 ** 22, 64)),
    (np.geomspace(3.0, 1e4, 5)[:, None], np.geomspace(2.0, 2.0 ** 22, 64)),
])
def test_separate_packet_error_equals_two_error_prob_calls(gamma0, n, pkt):
    # one broadcast error_prob over (metadata, data) against one call per part
    budget = LinkBudget(gamma0, 1e5, 1e-3)
    gamma = gamma0 * 2.0 * 1e5 * 1e-3 / np.asarray(n)
    expected = union_error(error_prob(np.asarray(n) / 2.0, gamma, pkt.metadata_bits),
                           error_prob(np.asarray(n) / 2.0, gamma, pkt.data_bits))
    got = packet_error(budget, pkt, n, "separate")
    assert np.array_equal(got, expected)
    if np.ndim(expected) == 0:
        assert type(got) is float


def test_link_budget_value_equality_and_hash():
    gammas = np.array([1.0, 10.0, 100.0])
    a = LinkBudget(gammas, 1e5, 1e-3)
    b = LinkBudget(gammas.copy(), 1e5, 1e-3)
    assert a == b and hash(a) == hash(b)
    assert a != LinkBudget(np.array([1.0, 10.0, 99.0]), 1e5, 1e-3)
    assert a != LinkBudget(gammas, 2e5, 1e-3)
    assert a != LinkBudget(gammas[:, None], 1e5, 1e-3)
    assert a != LinkBudget(10.0, 1e5, 1e-3)
    assert LinkBudget(10.0, 1e5, 1e-3) == LinkBudget(10, 100000, 1e-3)
    assert hash(LinkBudget(10.0, 1e5, 1e-3)) == hash(LinkBudget(10, 100000, 1e-3))
    assert LinkBudget(np.array(10.0), 1e5, 1e-3) == LinkBudget(10.0, 1e5, 1e-3)
    assert a != "budget"
    assert len({a, b, LinkBudget(10.0, 1e5, 1e-3)}) == 2


@pytest.mark.parametrize("mode", ["joint", "separate"])
def test_min_bandwidth_meets_targets_below_double_spacing(mode):
    # at 20 dB, 128+128 bits: errors of 1e-17 and 1e-20 are both far below
    # the spacing of doubles near 1, yet each target gets its own bandwidth
    budget = LinkBudget(100.0, 1e5, 1e-3)
    pkt = PacketSpec(128, 128)
    solved = {}
    for eps in (1e-12, 1e-17, 1e-20):
        b = min_bandwidth(budget, pkt, eps, mode)
        assert math.isfinite(b)
        n_hi = 2.0 * b * (1.0 + 1e-5) * budget.latency_s
        n_lo = 2.0 * b * (1.0 - 1e-5) * budget.latency_s
        assert packet_error(budget, pkt, n_hi, mode) <= eps
        assert packet_error(budget, pkt, n_lo, mode) > eps
        solved[eps] = b
    assert solved[1e-12] < solved[1e-17] < solved[1e-20]


@pytest.mark.parametrize("mode", ["joint", "separate"])
def test_min_bandwidth_output_itself_meets_target(mode):
    # the returned bandwidth, not just B(1 + 1e-5), must meet eps: the end
    # of the final bisection bracket, never its midpoint
    feasible = 0
    for g_db in np.linspace(5.0, 40.0, 20):
        budget = LinkBudget(10.0 ** (g_db / 10.0), 1e5, 1e-3)
        for pkt in (PacketSpec.from_bytes(16, 16), PacketSpec.from_bytes(32, 8),
                    PacketSpec.from_bytes(4, 4)):
            for eps in (1e-5, 1e-9, 1e-17):
                b = min_bandwidth(budget, pkt, eps, mode)
                if math.isinf(b):
                    continue
                feasible += 1
                n = 2.0 * b * budget.latency_s
                assert packet_error(budget, pkt, n, mode) <= eps, (g_db, pkt, eps)
    assert feasible > 150


def test_min_bandwidth_joint_never_needs_more_than_separate():
    pkt = PacketSpec(128, 128)
    for g_db in np.linspace(8.0, 35.0, 8):
        budget = LinkBudget(10.0 ** (g_db / 10.0), 1e5, 1e-3)
        b_joint = min_bandwidth(budget, pkt, 1e-5, "joint")
        b_sep = min_bandwidth(budget, pkt, 1e-5, "separate")
        assert b_joint <= b_sep


def test_min_bandwidth_infeasible_is_inf():
    # the asymptotic limit carries ~1.4 bits; a 256-bit packet cannot fit
    tiny = LinkBudget(0.01, 1e5, 1e-3)
    assert min_bandwidth(tiny, PacketSpec(128, 128), 1e-5, "joint") == math.inf
    # at a 5 dB reference the separate split starves each half within the
    # solver's blocklength ceiling while joint encoding still fits
    low = LinkBudget(10.0 ** 0.5, 1e5, 1e-3)
    assert math.isfinite(min_bandwidth(low, PacketSpec(128, 128), 1e-5, "joint"))
    assert min_bandwidth(low, PacketSpec(128, 128), 1e-5, "separate") == math.inf


@pytest.mark.parametrize("eps", [1e-5, 1e-17])
@pytest.mark.parametrize("mode", ["joint", "separate"])
def test_min_bandwidth_batched_equals_scalar_calls(mode, eps):
    pkt = PacketSpec(8, 8)
    gammas = np.geomspace(1e-3, 1e9, 49)
    batched = min_bandwidth(LinkBudget(gammas, 1e5, 1e-3), pkt, eps, mode)
    scalar = [min_bandwidth(LinkBudget(float(g), 1e5, 1e-3), pkt, eps, mode)
              for g in gammas]
    ones = [min_bandwidth(LinkBudget(np.array([g]), 1e5, 1e-3), pkt, eps, mode)
            for g in gammas]
    assert isinstance(batched, np.ndarray) and batched.shape == gammas.shape
    assert batched.tolist() == scalar
    # a scalar gamma0 is a batch of one: element 0 of it, as a float
    assert all(type(x) is float for x in scalar)
    assert all(one.shape == (1,) for one in ones)
    assert [one[0] for one in ones] == scalar
    # the rows cover every way a solve ends
    required = pkt.total_bits if mode == "joint" else pkt.metadata_bits
    available = asymptotic_bits(LinkBudget(gammas, 1e5, 1e-3))
    if mode == "separate":
        available = available / 2.0
    ceiling = required >= available * 1.02
    floor = 2.0 / (2.0 * 1e-3)           # the grid's first point, n = 2
    assert np.any(ceiling) and np.all(np.isinf(batched[ceiling]))
    assert np.any(np.isinf(batched) & ~ceiling)        # no n up to n_max
    assert np.any(batched == floor)                     # first hit at n = 2
    assert np.any(np.isfinite(batched) & (batched > floor))   # bisected


def test_min_bandwidth_result_shape_follows_gamma0():
    pkt = PacketSpec(128, 128)
    one = min_bandwidth(LinkBudget(100.0, 1e5, 1e-3), pkt, 1e-9)
    assert type(one) is float
    assert type(min_bandwidth(LinkBudget(np.float64(100.0), 1e5, 1e-3), pkt, 1e-9)) is float
    grid = min_bandwidth(LinkBudget(np.full((2, 3), 100.0), 1e5, 1e-3), pkt, 1e-9)
    assert grid.shape == (2, 3)
    assert np.all(grid == one)
    assert type(min_bandwidth(LinkBudget(0.01, 1e5, 1e-3), pkt, 1e-9)) is float



def test_min_bandwidth_validation():
    budget = LinkBudget(10.0, 1e5, 1e-3)
    with pytest.raises(ValueError):
        min_bandwidth(budget, PacketSpec(8), 0.0)
    with pytest.raises(ValueError):
        min_bandwidth(budget, PacketSpec(8), 1e-5, "neither")

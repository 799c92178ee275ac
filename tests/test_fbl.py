"""Finite-blocklength error calculus and the minimum-bandwidth solver."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from urllckit import fbl, simcore
from urllckit.fbl import (
    LOG2E,
    LinkBudget,
    PacketSpec,
    asymptotic_bits,
    awgn_params,
    error_prob,
    min_bandwidth,
    packet_error,
    success_probability,
)
from urllckit.simcore import bisect, union_error

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


@pytest.mark.parametrize("gamma", [1e150, 1.3e154, 1e200, 1e308])
def test_awgn_params_dispersion_limit_where_its_formula_overflows(gamma):
    # (gamma + 1)^2 overflows from about 1.3e154 on; V must still be its
    # limit, with no warning, and not 0 or NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, v = awgn_params(gamma)
        _, vs = awgn_params(np.array([gamma, 1e12]))
    assert v == LOG2E ** 2 / 2.0 == 1.0406844905028039
    assert vs[0] == v


def test_awgn_params_dispersion_below_the_cap_is_the_formula():
    gamma = np.array([0.0, 1e-300, 0.5, 10.0, 1e12, 1e100, 1e149, 1e150])
    _, v = awgn_params(gamma)
    assert v.tolist() == (gamma * (gamma + 2.0) / (2.0 * (gamma + 1.0) ** 2) * LOG2E ** 2).tolist()


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


def _normal_arg_by_where(num, nv):
    # num / sqrt(nv) where nv > 0, else the sign's hard threshold, both
    # evaluated over the whole array
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(nv > 0, num / np.sqrt(np.where(nv > 0, nv, 1.0)),
                        np.where(num > 0, np.inf, np.where(num < 0, -np.inf, 0.0)))


def test_normal_arg_equals_the_nested_where_form():
    num = np.array([-2.5, -1e-300, -0.0, 0.0, 3.0, np.inf, -np.inf, np.nan])
    signs = np.array([-1.0, 0.0, 1.0, np.nan])
    rows = [
        np.full(num.size, 4.0),                       # every nv positive
        np.zeros(num.size),                           # every nv zero
        np.full(num.size, np.nan),                    # every nv NaN
        np.array([4.0, 0.0, np.nan, 1e-300, 0.0, np.inf, np.nan, 2.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nv in rows:
            np.testing.assert_array_equal(fbl._normal_arg(num, nv), _normal_arg_by_where(num, nv))
        # separate mode stacks two numerators over one variance
        stacked, nv = np.stack([num, num[::-1]]), rows[-1]
        np.testing.assert_array_equal(fbl._normal_arg(stacked, nv),
                                      _normal_arg_by_where(stacked, nv))
        for s, v in [(s, v) for s in signs for v in (0.0, np.nan, 2.0)]:
            np.testing.assert_array_equal(fbl._normal_arg(np.asarray(s), np.asarray(v)),
                                          _normal_arg_by_where(np.asarray(s), np.asarray(v)))


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


def test_link_budget_array_gamma0_compares_and_hashes():
    # budgets compare by identity: an array gamma0 makes == and hash
    # neither raise nor compare arrays elementwise
    gammas = np.array([1.0, 10.0, 100.0])
    a = LinkBudget(gammas, 1e5, 1e-3)
    b = LinkBudget(gammas.copy(), 1e5, 1e-3)
    assert a == a and a != b and a != "budget"
    assert len({a, b, a}) == 2


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


def test_min_bandwidth_pinned_at_eps_above_one_half():
    # at eps >= 1/2 a hit can lie where the normal-approximation numerator
    # is still negative; a bound that counted such blocks as misses would
    # find no bracket here
    budget = LinkBudget(10 ** -0.5, 1e5, 1e-3)
    assert min_bandwidth(budget, PacketSpec(8, 8), 0.9, "joint") == 3322.4831284805077


# random solves: up to 8 SNRs of one budget, targets from 1e-30 to 0.999
_SOLVES = dict(
    g_db=st.lists(st.floats(-30.0, 70.0), min_size=1, max_size=8),
    b0=st.floats(1e3, 1e7),
    latency=st.floats(1e-5, 1e-1),
    bits=st.tuples(st.integers(0, 4000), st.integers(0, 4000)).filter(any),
    eps=st.one_of(st.floats(-30.0, math.log10(0.999)).map(lambda k: 10.0 ** k),
                  st.floats(0.5, 0.999)),
    mode=st.sampled_from(["joint", "separate"]),
)

# the block edges of the bracket scan, where a rounding slip would show
_EDGE_COLUMNS = sorted({int(e) + d for e in fbl._EDGES for d in (-1, 0, 1)} & set(range(4096)))


@given(**_SOLVES, tie=st.one_of(st.none(), st.sampled_from(_EDGE_COLUMNS), st.integers(0, 4095)))
def test_first_hits_equal_a_scan_of_every_column(g_db, b0, latency, bits, eps, tie, mode):
    # the scan skips blocks whose bound rules out a hit; its first hits
    # must be those of packet_error evaluated at every grid column
    gamma0 = 10.0 ** (np.array(g_db) / 10.0)
    pkt = PacketSpec(*bits)
    errors = packet_error(LinkBudget(gamma0[:, None], b0, latency), pkt, fbl._GRID, mode)
    if tie is not None and 0.0 < errors[0, tie] < 1.0:
        # a target equal to one column's error, which that column meets
        eps = float(errors[0, tie])
    hit = errors <= eps
    expected = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    got = fbl._first_hits(gamma0, LinkBudget(gamma0, b0, latency), pkt, eps, mode)
    assert got.tolist() == expected.tolist()


@given(**_SOLVES, near_min=st.one_of(st.none(), st.floats(0.5, 1.0)))
# 51 closed blocks between the open ones and the one hit, in the grid's last
# column; and a flat minimum that no column meets
@example(g_db=[33.0], b0=1e3, latency=1e-5, bits=(0, 1), eps=0.1, near_min=1.0, mode="joint")
@example(g_db=[10.0 * math.log10(37.5)], b0=2e4, latency=2.59e-4, bits=(54, 0), eps=0.1,
         near_min=0.9, mode="joint")
def test_every_scan_round_starts_each_row_in_an_open_block(g_db, b0, latency, bits, eps,
                                                           near_min, mode):
    # a closed 64-column block holds no hit, so no packet_error call of the
    # bracket scan starts a row in one, from the first round on.  A target
    # just below the least error opens the blocks around a flat minimum and
    # leaves them without a hit, so the scan runs on past them
    gamma0 = 10.0 ** (np.array(g_db) / 10.0)
    budget, pkt = LinkBudget(gamma0, b0, latency), PacketSpec(*bits)
    if near_min is not None:
        least = float(packet_error(LinkBudget(gamma0[0], b0, latency), pkt, fbl._GRID, mode).min())
        if 0.0 < least < 1.0:
            eps = near_min * least
    calls = []
    inner = fbl._packet_error

    def recorded(g, budget, pkt, n, mode):
        calls.append((g, n[:, 0]))
        return inner(g, budget, pkt, n, mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fbl, "_packet_error", recorded)
        fbl._first_hits(gamma0, budget, pkt, eps, mode)
    for g, n in calls:
        open_ = fbl._open_blocks(g, budget, pkt, eps, fbl._GRID[fbl._EDGES], mode)
        block = np.minimum(np.searchsorted(fbl._GRID, n) // fbl._BLOCK, open_.shape[1] - 1)
        assert open_[np.arange(g.shape[0]), block].all()


def test_first_hits_where_the_error_rises_again_with_blocklength():
    # past n*C's saturation n*V still grows, so the Q argument can peak and
    # fall again; a block's bound must then divide by the variance at its
    # first column, or it rules out the hit at the peak
    budget = LinkBudget(2.297, 3.862e5, 1.171e-3)
    pkt = PacketSpec(54)
    errors = packet_error(budget, pkt, fbl._GRID)
    peak = int(errors.argmin())
    after = fbl._EDGES[np.searchsorted(fbl._EDGES, peak, side="right")]
    assert 0 < errors[peak] < errors[after]
    got = fbl._first_hits(np.array([budget.gamma0]), budget, pkt, errors[peak], "joint")
    assert got.tolist() == [peak]


def test_first_hits_where_the_error_rises_again_within_a_sub_block(monkeypatch):
    # the same at the second floor level: the only hit lies inside an
    # 8-column sub-block, below the errors at both its edges, so the
    # sub-block bound must divide by the variance at its first column.
    # The 64-column floor opens blocks hundreds of columns before such a
    # minimum; one block from the minimum's own block to the grid's end
    # stands in for it here, so the sub-blocks alone decide
    budget = LinkBudget(37.5, 2e4, 2.59e-4)
    pkt = PacketSpec(54)
    errors = packet_error(budget, pkt, fbl._GRID)
    peak = int(errors.argmin())
    step = int(fbl._SUB_EDGES[1])
    lo = peak - peak % step
    assert lo < peak < lo + step
    assert 0 < errors[peak] < min(errors[lo], errors[lo + step])
    assert np.count_nonzero(errors <= errors[peak]) == 1
    monkeypatch.setattr(fbl, "_EDGES", np.array([peak - peak % fbl._BLOCK, fbl._GRID.size - 1]))
    got = fbl._first_hits(np.array([budget.gamma0]), budget, pkt, errors[peak], "joint")
    assert got.tolist() == [peak]


def _bisection_subgrid(lo, hi, levels):
    # every point bisection can visit in `levels` halvings of each [lo, hi],
    # in order, built by the same recursive midpoints 0.5*(lo + hi)
    pts = np.empty((lo.size, 2 ** levels + 1))
    pts[:, 0], pts[:, -1] = lo, hi
    for level in range(levels - 1, -1, -1):
        step = 2 ** level
        pts[:, step::2 * step] = 0.5 * (pts[:, :-step:2 * step] + pts[:, 2 * step::2 * step])
    return pts


@given(**_SOLVES)
def test_refine_equals_bisect_on_the_coarse_bracket(g_db, b0, latency, bits, eps, mode):
    # the first-hit scan over bisection's own midpoints must return the
    # point bisection to a width of 1e-6 * lo returns, bit for bit
    gamma0 = 10.0 ** (np.array(g_db) / 10.0)
    budget, pkt = LinkBudget(gamma0, b0, latency), PacketSpec(*bits)
    first = fbl._first_hits(gamma0, budget, pkt, eps, mode)
    inner = first > 0
    g, lo, hi = gamma0[inner], fbl._GRID[first[inner] - 1], fbl._GRID[first[inner]]
    if not g.size:
        return
    inner_budget = LinkBudget(g, b0, latency)
    expected = bisect(lambda n: packet_error(inner_budget, pkt, n, mode) - eps,
                      lo, hi, tol=1e-6 * lo)
    got = fbl._refine(g, budget, pkt, eps, mode, lo, hi)
    assert got.tolist() == expected.tolist()


def _benchmark_solves():
    # the 30 fbl solves of the calc-sweeps benchmark: the default 20-point
    # 5-40 dB grid, three packets, five targets, both modes
    budget = LinkBudget(10.0 ** (np.linspace(5.0, 40.0, 20) / 10.0), 1e5, 1e-3)
    for eps in (1e-5, 1e-7, 1e-9, 1e-12, 1e-17):
        for data, meta in ((16, 16), (32, 8), (4, 4)):
            for mode in ("joint", "separate"):
                yield budget, PacketSpec.from_bytes(data, meta), eps, mode


def test_hits_follow_misses_within_the_benchmark_brackets():
    # where they do, the refinement equals bisection: check it over every
    # point bisection could visit in each bracket of the benchmark's solves
    brackets = 0
    for budget, pkt, eps, mode in _benchmark_solves():
        first = fbl._first_hits(budget.gamma0, budget, pkt, eps, mode)
        inner = first > 0
        pts = _bisection_subgrid(fbl._GRID[first[inner] - 1], fbl._GRID[first[inner]],
                                 fbl._REFINE_LEVELS)
        g = budget.gamma0[inner]
        hit = packet_error(LinkBudget(g[:, None], 1e5, 1e-3), pkt, pts, mode) <= eps
        assert not hit[:, 0].any() and hit[:, -1].all()
        # once a row hits, it keeps hitting
        assert np.array_equal(hit, np.maximum.accumulate(hit, axis=1))
        brackets += g.size
    assert brackets > 400


def test_refinement_takes_three_kernel_calls_and_no_bisect(monkeypatch):
    calls = {"all": 0, "scan": 0}
    kernel, scan = fbl._packet_error, fbl._first_hits

    def counted_kernel(*args):
        calls["all"] += 1
        return kernel(*args)

    def counted_scan(*args):
        out = scan(*args)
        calls["scan"] = calls["all"]
        return out

    def no_bisect(*args, **kwargs):
        raise AssertionError("bisect called")

    monkeypatch.setattr(fbl, "_packet_error", counted_kernel)
    monkeypatch.setattr(fbl, "_first_hits", counted_scan)
    monkeypatch.setattr(fbl, "bisect", no_bisect)
    monkeypatch.setattr(simcore, "bisect", no_bisect)
    assert fbl._REFINE_LEVELS // fbl._ROUND_LEVELS == 3
    for budget, pkt, eps, mode in _benchmark_solves():
        calls["all"] = calls["scan"] = 0
        b = min_bandwidth(budget, pkt, eps, mode)
        assert calls["scan"] > 0
        refine_calls = calls["all"] - calls["scan"]
        refined = np.isfinite(b) & (b > fbl._GRID[0] / (2.0 * budget.latency_s))
        assert refine_calls == (3 if refined.any() else 0)


def test_two_floor_levels_halve_the_points_per_solve(monkeypatch):
    # the benchmark's 30 solves, every _packet_error and _error_floor
    # element counted: the 8-column sub-block floor and the narrow first
    # round leave about 3,000 per solve, where the 64-column floor alone
    # with wide rounds took about 6,450
    elements = []
    for name in ("_packet_error", "_error_floor"):
        inner = getattr(fbl, name)

        def counted(gamma0, budget, pkt, n, mode, inner=inner):
            elements.append(np.broadcast(gamma0, n).size)
            return inner(gamma0, budget, pkt, n, mode)
        monkeypatch.setattr(fbl, name, counted)
    solves = list(_benchmark_solves())
    for budget, pkt, eps, mode in solves:
        min_bandwidth(budget, pkt, eps, mode)
    assert len(solves) == 30
    assert sum(elements) / len(solves) <= 3500


def test_scan_past_the_sub_block_span_skips_closed_blocks(monkeypatch):
    # near a flat error minimum the 64-column floor opens 14 blocks, yet no
    # column meets a target 0.9x the minimum error: each round that would
    # start in a closed block restarts at the next open one, so the scan
    # stops at the last open block instead of running on to the grid's end
    budget = LinkBudget(37.5, 2e4, 2.59e-4)
    pkt = PacketSpec(54)
    eps = 0.9 * float(packet_error(budget, pkt, fbl._GRID).min())
    open_ = fbl._open_blocks(np.array([[budget.gamma0]]), budget, pkt, eps,
                             fbl._GRID[fbl._EDGES], "joint")[0]
    assert open_.sum() == 14
    columns = []
    inner = fbl._packet_error

    def counted(gamma0, budget, pkt, n, mode):
        columns.extend(np.searchsorted(fbl._GRID, np.ravel(n)).tolist())
        return inner(gamma0, budget, pkt, n, mode)
    monkeypatch.setattr(fbl, "_packet_error", counted)
    assert fbl._first_hits(np.array([budget.gamma0]), budget, pkt, eps, "joint").tolist() == [-1]
    # without the restart the scan evaluated 2,752 columns, up to the grid's end
    assert len(columns) <= 2 * fbl._BLOCK * open_.sum()
    assert min_bandwidth(budget, pkt, eps) == math.inf


def test_first_hits_past_the_span_equal_a_scan_of_every_column():
    # at eps >= 1/2 the floors open blocks long before the first hit: here
    # it lies 253 columns past the first open block, beyond the two-block
    # span, inside an open block that a restart must not skip
    gamma0, eps, mode = np.array([10 ** 0.05]), 0.75, "separate"
    budget, pkt = LinkBudget(gamma0, 1e3, 0.015625), PacketSpec(13, 13)
    errors = packet_error(LinkBudget(gamma0[:, None], 1e3, 0.015625), pkt, fbl._GRID, mode)
    hit = int(np.argmax(errors[0] <= eps))
    open_ = fbl._open_blocks(gamma0[:, None], budget, pkt, eps, fbl._GRID[fbl._EDGES], mode)
    assert hit - fbl._EDGES[open_[0].argmax()] > fbl._SUB_EDGES[-1]
    assert fbl._first_hits(gamma0, budget, pkt, eps, mode).tolist() == [hit]

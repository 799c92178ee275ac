"""Marker self-reproduction bounds, marker search, and the sync detector."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urllckit import framesync
from urllckit.framesync import (
    Marker,
    occurrence_distribution,
    p_ub,
    p_ub_list,
    search_marker,
    simulate_sync,
)
from urllckit.simcore import MonteCarloConfig


def brute_force_counts(marker: Marker, payload_bits: int) -> dict:
    """Occurrence law by enumerating every payload, for cross-checking.

    Counts the offsets 1..payload_bits whose window reproduces the marker,
    windows straddling the marker/payload boundary included.
    """
    m = marker.bits
    probs = {}
    weight = 0.5 ** payload_bits
    for payload in itertools.product((0, 1), repeat=payload_bits):
        s = m + payload
        c = sum(1 for j in range(1, payload_bits + 1)
                if s[j:j + len(m)] == m)
        probs[c] = probs.get(c, 0.0) + weight
    return probs


def test_two_bit_marker_exact_law():
    dist = occurrence_distribution(Marker.from_string("10"), 2)
    # the marker can only recur at the last offset, with both payload bits pinned
    assert dist.probs == {0: 0.75, 1: 0.25}
    assert dist.tail_mass == 0.0
    assert p_ub(dist) == 0.875


@pytest.mark.parametrize("bits,payload", [
    ("1", 6),
    ("11", 8),
    ("101", 9),
    ("1010", 10),
    ("0110", 7),
    ("10110", 8),
])
def test_distribution_matches_enumeration(bits, payload):
    marker = Marker.from_string(bits)
    dist = occurrence_distribution(marker, payload)
    expected = brute_force_counts(marker, payload)
    assert set(dist.probs) == set(expected)
    for count, prob in expected.items():
        # dyadic rationals at these sizes, so equality is exact
        assert dist.probs[count] == prob
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(bits=st.text("01", min_size=1, max_size=6),
       payload=st.integers(0, 12), cap=st.integers(1, 6))
def test_capped_distribution_matches_enumeration(bits, payload, cap):
    # at small caps BLAS may sum the lumped tail in another order than here
    marker = Marker.from_string(bits)
    dist = occurrence_distribution(marker, payload, count_cap=cap)
    expected = brute_force_counts(marker, payload)
    capped = {c: p for c, p in expected.items() if c <= cap}
    assert set(dist.probs) == set(capped)
    for count, prob in capped.items():
        assert dist.probs[count] == pytest.approx(prob, rel=1e-15, abs=0)
    tail = sum(p for c, p in expected.items() if c > cap)
    assert dist.tail_mass == pytest.approx(tail, rel=1e-15, abs=0)


def test_distribution_empty_payload():
    dist = occurrence_distribution(Marker.from_string("110"), 0)
    assert dist.probs == {0: 1.0}


def test_distribution_cap_lumps_tail():
    marker = Marker.from_string("1")
    full = occurrence_distribution(marker, 8, count_cap=32)
    capped = occurrence_distribution(marker, 8, count_cap=3)
    expected_tail = sum(p for c, p in full.probs.items() if c > 3)
    assert capped.tail_mass == pytest.approx(expected_tail, abs=1e-15)
    assert max(capped.probs) <= 3


def test_capped_bound_is_pessimistic():
    marker = Marker.from_string("1")
    full = p_ub(occurrence_distribution(marker, 10, count_cap=32))
    capped = p_ub(occurrence_distribution(marker, 10, count_cap=2))
    assert capped <= full


def test_distribution_validation():
    with pytest.raises(ValueError):
        occurrence_distribution(Marker.from_string("1"), -1)
    with pytest.raises(ValueError):
        occurrence_distribution(Marker.from_string("1"), 4, count_cap=0)


def test_p_ub_list_properties():
    dist = occurrence_distribution(Marker.from_string("1010"), 12)
    assert p_ub_list(dist, 1) == p_ub(dist)
    # p_ub is the l = 1 list bound, bit for bit the direct sum_i Pr{C=i}/(i+1)
    for n_bits in (1, 2, 3, 4):
        for value in range(2 ** n_bits):
            marker = Marker(tuple((value >> k) & 1 for k in range(n_bits)))
            for payload, cap in ((0, 32), (5, 32), (16, 32), (40, 32), (16, 2)):
                d = occurrence_distribution(marker, payload, count_cap=cap)
                assert p_ub(d) == p_ub_list(d, 1) == sum(
                    p / (i + 1) for i, p in d.probs.items())
    vals = [p_ub_list(dist, l) for l in (1, 2, 3, 4, 6, 8)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    # a list covering the whole support is certain to contain the truth
    assert p_ub_list(dist, max(dist.probs) + 1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        p_ub_list(dist, 0)


def test_marker_basics():
    m = Marker.from_string("10")
    assert m.as_string() == "10"
    assert len(m) == 2
    assert np.array_equal(m.symbols(), [-1.0, 1.0])
    assert Marker.alternating(4).as_string() == "1010"


def test_marker_validation():
    with pytest.raises(ValueError):
        Marker(())
    with pytest.raises(ValueError):
        Marker((0, 2))
    with pytest.raises(ValueError):
        Marker.from_string("10a")
    with pytest.raises(ValueError):
        Marker.alternating(0)


def test_search_marker_exhaustive_small():
    best = search_marker(2, 2, budget=4)
    assert best.as_string() in ("01", "10")
    assert p_ub(occurrence_distribution(best, 2)) == 0.875


def test_search_marker_never_worse_than_alternating():
    best = search_marker(8, 32, budget=10, seed=5)
    score = p_ub(occurrence_distribution(best, 32))
    baseline = p_ub(occurrence_distribution(Marker.alternating(8), 32))
    assert score >= baseline


def test_search_marker_deterministic():
    a = search_marker(10, 24, budget=40, seed=3)
    b = search_marker(10, 24, budget=40, seed=3)
    assert a == b


# goldens computed with the per-bit np.add.at DP and a search that scored
# every evaluation: transfer matrices and the memo keep the search path
@pytest.mark.parametrize("n_bits,expected", [
    (23, "00101000000110101011101"),
    (24, "000001111111101010011101"),
])
def test_search_marker_golden(n_bits, expected):
    assert search_marker(n_bits, 256, budget=100, seed=1).as_string() == expected


def test_search_marker_scores_each_distinct_word_once(monkeypatch):
    seen = []
    original = framesync.occurrence_distribution

    def counting(marker, *args, **kwargs):
        seen.append(marker.bits)
        return original(marker, *args, **kwargs)

    monkeypatch.setattr(framesync, "occurrence_distribution", counting)
    best = search_marker(23, 256, budget=100, seed=1)
    assert best.as_string() == "00101000000110101011101"
    assert len(seen) == len(set(seen))
    # the climb revisits words, so a 100-evaluation budget scores fewer
    assert len(seen) < 100
    # nothing is kept between searches
    seen.clear()
    search_marker(23, 256, budget=100, seed=1)
    assert len(seen) == len(set(seen)) > 0


def test_search_marker_validation():
    with pytest.raises(ValueError):
        search_marker(0, 8)
    with pytest.raises(ValueError):
        search_marker(4, 8, budget=0)


def correlation_ties(marker: Marker, payload: np.ndarray) -> np.ndarray:
    """Tied correlation peaks per trial, from the packet as the detector builds it.

    The noiseless correlation block of the detector: the BPSK packet, the
    correlation at every in-packet offset, its peak and the count of
    offsets at the peak.  Offset 0 must be among them.
    """
    m = len(marker)
    count, n = payload.shape
    msym = marker.symbols()
    packet = np.empty((count, m + n))
    packet[:, :m] = msym
    packet[:, m:] = 1.0 - 2.0 * payload
    corr = np.empty((count, n + 1))
    for j in range(n + 1):
        corr[:, j] = packet[:, j:j + m] @ msym
    peak = corr.max(axis=1)
    assert (corr[:, 0] == peak).all()
    return (corr == peak[:, None]).sum(axis=1)


@pytest.mark.parametrize("bits", [
    "1", "0000", "1010", "110", "000001111111101010011101",
])
@pytest.mark.parametrize("payload_bits", [0, 3, 5, 8, 13, 40])
def test_reproduction_count_equals_detector_ties(bits, payload_bits):
    # n % 8 != 0, n < 8, n = 0, and m > n for the longer markers
    marker = Marker.from_string(bits)
    rng = np.random.default_rng(len(bits) * 100 + payload_bits)
    # mostly-zero and mostly-one rows make the periodic markers recur often
    payload = np.concatenate([
        rng.integers(0, 2, size=(3000, payload_bits)),
        (rng.random((500, payload_bits)) < 0.1).astype(np.int64),
        (rng.random((500, payload_bits)) < 0.9).astype(np.int64),
    ])
    counts = framesync._reproduction_counter(marker)(payload)
    assert np.array_equal(1 + counts, correlation_ties(marker, payload))


def test_simulate_sync_noiseless_matches_bound():
    marker = Marker.from_string("1010")
    dist = occurrence_distribution(marker, 8)
    p = p_ub(dist)
    trials = 100_000
    est = simulate_sync(marker, 8, None, MonteCarloConfig(trials, 3))
    sigma = (p * (1.0 - p) / trials) ** 0.5
    assert abs(est - p) <= 4.0 * sigma


def test_simulate_sync_noise_degrades_detection():
    marker = Marker.from_string("1010")
    mc = MonteCarloConfig(20_000, 3)
    clean = simulate_sync(marker, 8, None, mc)
    noisy = simulate_sync(marker, 8, -20.0, mc)
    assert noisy < clean - 0.3


def test_simulate_sync_trivial_cases():
    marker = Marker.from_string("1010")
    assert simulate_sync(marker, 0, None, MonteCarloConfig(500, 0)) == 1.0
    with pytest.raises(ValueError):
        simulate_sync(marker, -1, None, MonteCarloConfig(10, 0))


def test_simulate_sync_worker_invariance():
    # payload long enough that the trial budget spans several blocks
    marker = Marker.from_string("110")
    mc = MonteCarloConfig(40_000, 9)
    a = simulate_sync(marker, 300, 5.0, mc, workers=1)
    b = simulate_sync(marker, 300, 5.0, mc, workers=3)
    assert a == b


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_sync_golden(workers):
    # two blocks of draws at 256 payload bits; the values were computed with
    # the block built out of place, so building it in place keeps every draw
    marker = Marker.from_string("000001111111101010011101")
    mc = MonteCarloConfig(20_000, 2)
    assert simulate_sync(marker, 256, 3.0, mc, workers=workers) == 0.95895
    assert simulate_sync(marker, 256, None, mc, workers=workers) == 1.0


# noiseless goldens where the marker often recurs, so the estimate is far
# from 1 and carries the count; computed with the correlation detector
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bits,payload_bits,trials,expected", [
    ("1010", 8, 20_000, 0.7617),
    ("1010", 13, 20_000, 0.66815),
    ("0000", 64, 20_000, 0.26375),
    ("110", 300, 40_000, 0.0262),  # three blocks
])
def test_simulate_sync_noiseless_golden(bits, payload_bits, trials, expected, workers):
    mc = MonteCarloConfig(trials, 2)
    marker = Marker.from_string(bits)
    assert simulate_sync(marker, payload_bits, None, mc, workers=workers) == expected

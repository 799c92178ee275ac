"""Marker self-reproduction bounds, marker search, and the sync detector."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urllckit import framesync
from urllckit.cli import EXIT_OK, run
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
    # each packet as one integer, first bit high; window j is a shifted slice
    m, n = len(marker), payload_bits
    word = int(marker.as_string(), 2)
    packets = (word << n) | np.arange(2 ** n, dtype=np.int64)
    counts = np.zeros(2 ** n, dtype=np.int64)
    for j in range(1, n + 1):
        counts += ((packets >> (n - j)) & (2 ** m - 1)) == word
    return {c: k * 0.5 ** n for c, k in enumerate(np.bincount(counts)) if k}


def autocorrelation(bits: tuple) -> tuple:
    """Which shifts j = 1..m-1 of the word overlap it: bits[j:] == bits[:m-j]."""
    return tuple(bits[j:] == bits[:len(bits) - j] for j in range(1, len(bits)))


def exact_p_ub(bits: str, payload_bits: int) -> Fraction:
    """Exact P_UB from integer payload counts, for cross-checking.

    Steps the number of payloads per (automaton state, count) bit by bit.
    A state is the longest marker prefix that ends the text read so far,
    found by direct comparison; the marker itself was read first.
    """
    m = len(bits)

    def step(q: int, b: str) -> int:
        text = bits[:q] + b
        return next(k for k in range(min(len(text), m), -1, -1)
                    if text[len(text) - k:] == bits[:k])

    table = {(q, b): step(q, b) for q in range(m + 1) for b in "01"}
    ways = {(m, 0): 1}
    for _ in range(payload_bits):
        nxt: dict = {}
        for (q, c), w in ways.items():
            for b in "01":
                t = table[q, b]
                key = (t, c + (t == m))
                nxt[key] = nxt.get(key, 0) + w
        ways = nxt
    return sum(Fraction(w, c + 1) for (_, c), w in ways.items()) / 2 ** payload_bits


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
    assert sum(dist.probs.values()) + dist.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_equal_autocorrelation_gives_equal_law():
    # the marker search scores one word per autocorrelation class; exhaustive
    # over every word of up to 8 bits at payloads 0..14, n < m included
    for m in range(1, 9):
        laws = {}
        for value in range(2 ** m):
            marker = Marker(tuple((value >> (m - 1 - k)) & 1 for k in range(m)))
            law = [brute_force_counts(marker, n) for n in range(15)]
            assert laws.setdefault(autocorrelation(marker.bits), law) == law, marker
        # the classes are few, so the check compares many words per class
        assert len(laws) < 2 ** m


@settings(max_examples=60, deadline=None)
@given(bits=st.text("01", min_size=1, max_size=6), payload=st.integers(0, 12))
def test_capped_distribution_matches_enumeration(bits, payload):
    # the DP's first count cap already covers every count of these payloads
    marker = Marker.from_string(bits)
    dist = occurrence_distribution(marker, payload)
    assert dist.probs == brute_force_counts(marker, payload)
    assert dist.tail_mass == 0.0


def test_distribution_empty_payload():
    dist = occurrence_distribution(Marker.from_string("110"), 0)
    assert dist.probs == {0: 1.0}


@pytest.mark.parametrize("n", [40, 100, 1024])
def test_marker_one_count_is_binomial(n):
    # 1 reproduces at every 1 bit, so C ~ Binomial(n, 1/2): counts far past
    # the DP's first cap of 32, which it must rerun to reach
    dist = occurrence_distribution(Marker.from_string("1"), n)
    pmf = [float(Fraction(math.comb(n, k), 2 ** n)) for k in range(n + 1)]
    assert sorted(dist.probs) == list(range(n + 1))
    for k, p in dist.probs.items():
        assert p == pytest.approx(pmf[k], rel=1e-12, abs=0)
    # sum_k C(n, k) 2^-n / (k + 1) = (2 - 2^-n) / (n + 1)
    assert p_ub(dist) == pytest.approx(float(Fraction(2 ** (n + 1) - 1, 2 ** n * (n + 1))),
                                       rel=1e-12, abs=0)
    assert dist.tail_mass <= np.finfo(float).eps / (n + 1)


def test_exact_laws_take_one_pass(monkeypatch):
    # a law whose first pass lumps only rounding is not rerun: the
    # benchmark's 23- and 24-bit searches at 256 payload bits take one DP
    # pass per autocorrelation class they score
    passes, calls = [], []
    joint_law, distribution = framesync._joint_law, framesync.occurrence_distribution

    def counted_pass(delta, payload_bits, cap):
        passes.append(cap)
        return joint_law(delta, payload_bits, cap)

    def counted_call(*args):
        calls.append(args)
        return distribution(*args)

    monkeypatch.setattr(framesync, "_joint_law", counted_pass)
    monkeypatch.setattr(framesync, "occurrence_distribution", counted_call)
    for n_bits in (23, 24):
        search_marker(n_bits, 256, budget=100, seed=0)
    assert len(calls) > 2
    assert passes == [32] * len(calls)


def test_distribution_validation():
    with pytest.raises(ValueError):
        occurrence_distribution(Marker.from_string("1"), -1)


def test_p_ub_list_properties():
    dist = occurrence_distribution(Marker.from_string("1010"), 12)
    assert p_ub_list(dist, 1) == p_ub(dist)
    # p_ub is the l = 1 list bound, bit for bit the direct sum_i Pr{C=i}/(i+1)
    for n_bits in (1, 2, 3, 4):
        for value in range(2 ** n_bits):
            marker = Marker(tuple((value >> k) & 1 for k in range(n_bits)))
            for payload in (0, 5, 16, 40, 256, 1024):
                d = occurrence_distribution(marker, payload)
                assert p_ub(d) == p_ub_list(d, 1) == sum(
                    p / (i + 1) for i, p in d.probs.items())
                # short markers reproduce past the DP's first cap; what it
                # lumps moves no bound by more than rounding, p_ub >= 1/(n+1)
                assert d.tail_mass <= np.finfo(float).eps / (payload + 1)
                assert p_ub(d) >= 1.0 / (payload + 1)
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
    best = search_marker(2, 2, budget=4).marker
    assert best.as_string() in ("01", "10")
    assert p_ub(occurrence_distribution(best, 2)) == 0.875


def test_search_marker_never_worse_than_alternating():
    best = search_marker(8, 32, budget=10, seed=5).marker
    score = p_ub(occurrence_distribution(best, 32))
    baseline = p_ub(occurrence_distribution(Marker.alternating(8), 32))
    assert score >= baseline


def test_search_marker_deterministic():
    a = search_marker(10, 24, budget=40, seed=3).marker
    b = search_marker(10, 24, budget=40, seed=3).marker
    assert a == b


# goldens of the class-keyed search, keyed by the word the search found
# before it scored each autocorrelation class once; that word is no better
# by the exact P_UB, and the case is named by its length and that word
SEARCH_GOLDENS = {
    "00101000000110101011101": "00101010101010101111101",
    "000001111111101010011101": "001010101010101011101011",
}


@pytest.mark.parametrize("n_bits,previous", [(len(w), w) for w in SEARCH_GOLDENS])
def test_search_marker_golden(n_bits, previous):
    expected = SEARCH_GOLDENS[previous]
    assert search_marker(n_bits, 256, budget=100, seed=1).marker.as_string() == expected
    exact = exact_p_ub(expected, 256)
    assert exact >= exact_p_ub(previous, 256)
    # the float DP agrees with the exact law to rounding
    got = p_ub(occurrence_distribution(Marker.from_string(expected), 256))
    assert abs(got - exact) <= 1e-14 * exact


def count_scored(monkeypatch, key) -> list:
    """Patch the search's DP to record key(marker.bits) for every call."""
    seen = []
    original = framesync.occurrence_distribution

    def counting(marker, *args, **kwargs):
        seen.append(key(marker.bits))
        return original(marker, *args, **kwargs)

    monkeypatch.setattr(framesync, "occurrence_distribution", counting)
    return seen


def test_search_marker_scores_each_distinct_word_once(monkeypatch):
    seen = count_scored(monkeypatch, lambda bits: bits)
    search_marker(24, 256, budget=100, seed=1)
    assert len(seen) == len(set(seen)) > 0
    assert len(seen) < 100


def test_search_marker_scores_each_autocorrelation_class_once(monkeypatch):
    seen = count_scored(monkeypatch, autocorrelation)
    best = search_marker(23, 256, budget=100, seed=1).marker
    assert best.as_string() == "00101010101010101111101"
    assert len(seen) == len(set(seen))
    # the climb revisits classes, so a 100-evaluation budget scores fewer
    assert len(seen) < 100
    # nothing is kept between searches
    seen.clear()
    search_marker(23, 256, budget=100, seed=1)
    assert len(seen) == len(set(seen)) > 0


def test_search_marker_returns_the_winners_law():
    # exhaustive (n_bits = 8) and hill climbing (n_bits = 23 and 64): the law
    # the search scored the winner by is the one a fresh DP of the winner
    # gives.  At 64 bits budget 400 reaches a random restart, whose word
    # was drawn past int64's range
    for n_bits, budget in ((8, 256), (23, 100), (64, 400)):
        dist = search_marker(n_bits, 256, budget=budget, seed=1)
        own = occurrence_distribution(dist.marker, 256)
        assert dist.probs == own.probs and dist.tail_mass == own.tail_mass


def test_framesync_sweep_runs_one_dp_per_scored_class(monkeypatch, tmp_path):
    # the sweep prints the winner's law from the search: at 23 and 24 bits
    # the searches score 21 classes, and the sweep runs no DP beyond them
    seen = count_scored(monkeypatch, autocorrelation)
    out = tmp_path / "fs.csv"
    assert run(["framesync", "sweep", "--out", str(out), "--nm-min", "23",
                "--nm-max", "24", "--payload-bits", "256", "--budget", "100"]) == EXIT_OK
    assert len(seen) == len(set(seen)) == 21


def test_search_marker_validation():
    with pytest.raises(ValueError):
        search_marker(0, 8)
    with pytest.raises(ValueError):
        search_marker(4, 8, budget=0)
    # restarts draw 64-bit words, so a longer climb is refused by name at
    # its first restart; one whose budget ends before any restart still runs
    with pytest.raises(ValueError, match=r"\bn_bits must be at most 64"):
        search_marker(65, 64, budget=400)
    dist = search_marker(100, 256, budget=150)
    assert len(dist.marker.bits) == 100


def test_word_reversal_and_complement_laws_agree_to_rounding():
    # one autocorrelation class, one law in exact arithmetic; the float DP
    # may differ in the last bits, which is why the search scores a class once
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(8, 25))
        bits = tuple(int(b) for b in rng.integers(0, 2, m))
        ref = occurrence_distribution(Marker(bits), 256)
        for twin in (bits[::-1], tuple(1 - b for b in bits)):
            law = occurrence_distribution(Marker(twin), 256)
            assert law.probs.keys() == ref.probs.keys()
            for count, prob in ref.probs.items():
                assert law.probs[count] == pytest.approx(prob, rel=1e-13, abs=0.0)
            assert law.tail_mass == pytest.approx(ref.tail_mass, rel=1e-13, abs=0.0)


def correlation_ties(marker: Marker, payload: np.ndarray, noise=None):
    """Tied correlation peaks per trial, from the packet as the detector builds it.

    The correlation block of the detector: the BPSK packet plus the noise
    samples, if any, the correlation at every in-packet offset, its peak
    and the count of offsets at the peak.  Returns that count and whether
    offset 0 is among them.
    """
    m = len(marker)
    count, n = payload.shape
    msym = marker.symbols()
    packet = np.empty((count, m + n))
    packet[:, :m] = msym
    packet[:, m:] = 1.0 - 2.0 * payload
    if noise is not None:
        packet += noise
    corr = np.empty((count, n + 1))
    for j in range(n + 1):
        corr[:, j] = packet[:, j:j + m] @ msym
    peak = corr.max(axis=1)
    return (corr == peak[:, None]).sum(axis=1), corr[:, 0] == peak


def detector_replay(marker: Marker, payload_bits: int, snr_db, mc: MonteCarloConfig):
    """Correct-sync estimate of correlation_ties over simulate_sync's draws.

    Replays the stream layout: blocks of 2^22 // (m + n) trials, block b
    drawing from mc.stream(102, m, n).block_generator(b) the payload as
    ceil(n/8) uint8 bytes per trial (first bit high), then the noise, then
    the tie-break uniforms.
    """
    m, n = len(marker), payload_bits
    block = 2 ** 22 // (m + n)
    stream = mc.stream(102, m, n)
    wins = 0
    for b, start in enumerate(range(0, mc.trials, block)):
        count = min(block, mc.trials - start)
        rng = stream.block_generator(b)
        packed = rng.integers(0, 256, size=(count, (n + 7) // 8), dtype=np.uint8)
        payload = np.unpackbits(packed, axis=1, count=n)
        noise = None if snr_db is None else rng.normal(
            0.0, 10.0 ** (-snr_db / 20.0), (count, m + n))
        ties, at_true = correlation_ties(marker, payload, noise)
        if noise is None:
            assert at_true.all()
        u = rng.random(count)
        wins += np.count_nonzero(at_true & (u * ties < 1.0))
    return wins / mc.trials


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
    packed = np.packbits(payload, axis=1)
    if payload_bits % 8:
        # the bits past n in the last byte are drawn too, and must not count
        pad = (1 << (8 - payload_bits % 8)) - 1
        packed[:, -1] |= rng.integers(0, 256, size=len(packed), dtype=np.uint8) & pad
    counts = framesync._reproduction_counter(marker)(packed, payload_bits)
    ties, at_true = correlation_ties(marker, payload)
    assert at_true.all()
    assert np.array_equal(1 + counts, ties)


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


# goldens from detector_replay, the correlation detector of this file over
# the packed draws; test_sync_goldens_replay_the_detector recomputes them
FIVE_NINES_WORD = "000001111111101010011101"
NOISELESS_GOLDENS = [
    ("1010", 8, 20_000, 0.7658),
    ("1010", 13, 20_000, 0.6669),
    ("0000", 64, 20_000, 0.26),
    ("110", 300, 40_000, 0.02595),  # three blocks
]
# the same estimates from the int64 bit draws the packed draws replaced: an
# independent stream, so each golden lies within Monte-Carlo noise of these
PREVIOUS_NOISELESS = [0.7617, 0.66815, 0.26375, 0.0262]


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_sync_golden(workers):
    # two blocks of draws at 256 payload bits
    marker = Marker.from_string(FIVE_NINES_WORD)
    mc = MonteCarloConfig(20_000, 2)
    assert simulate_sync(marker, 256, 3.0, mc, workers=workers) == 0.96055
    assert simulate_sync(marker, 256, None, mc, workers=workers) == 1.0


# noiseless goldens where the marker often recurs, so the estimate is far
# from 1 and carries the count; a case is named by its inputs and the
# estimate of the int64 draws
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bits,payload_bits,trials,previous,expected", [
    (b, n, t, prev, e) for (b, n, t, e), prev in zip(NOISELESS_GOLDENS, PREVIOUS_NOISELESS)
], ids=[f"{b}-{n}-{t}-{prev}" for (b, n, t, _), prev
        in zip(NOISELESS_GOLDENS, PREVIOUS_NOISELESS)])
def test_simulate_sync_noiseless_golden(bits, payload_bits, trials, previous,
                                        expected, workers):
    mc = MonteCarloConfig(trials, 2)
    marker = Marker.from_string(bits)
    assert simulate_sync(marker, payload_bits, None, mc, workers=workers) == expected
    # two independent estimates of one probability differ by noise only
    sigma = np.sqrt(2.0 * expected * (1.0 - expected) / trials)
    assert abs(expected - previous) <= 4.0 * sigma


@pytest.mark.parametrize("bits,payload_bits,snr_db,trials,expected", [
    (FIVE_NINES_WORD, 256, 3.0, 20_000, 0.96055),
    (FIVE_NINES_WORD, 256, None, 20_000, 1.0),
    *((b, n, None, t, e) for b, n, t, e in NOISELESS_GOLDENS),
], ids=["24-256-3dB", "24-256", *(f"{b}-{n}" for b, n, _, _ in NOISELESS_GOLDENS)])
def test_sync_goldens_replay_the_detector(bits, payload_bits, snr_db, trials, expected):
    marker = Marker.from_string(bits)
    mc = MonteCarloConfig(trials, 2)
    assert detector_replay(marker, payload_bits, snr_db, mc) == expected

"""Frame synchronization: marker self-reproduction bounds and detection.

A packet is a fixed binary marker followed by random payload bits.  A
correlation detector can lock onto any window that reproduces the marker,
so the probability of correct sync is governed by the count C of payload
offsets (including those straddling the marker/payload boundary) whose
window equals the marker.  With ties broken uniformly the detector picks
the true position with probability 1/(C+1), giving the upper bound
sum_i Pr{C=i}/(i+1), and a list detector that keeps l candidates succeeds
whenever C < l plus l/(i+1) otherwise.

The distribution of C is computed exactly with a prefix-automaton dynamic
program over the payload; the automaton starts in the full-match state so
marker-suffix overlaps are handled without enumeration.  The program steps
the payload a byte at a time: one transfer matrix, built from the state
after each of the 256 bytes and the matches completed inside it, moves
the joint law of (state, count) through a byte with one matrix product.
The n mod 8 leftover bits step one at a time.  Counts above a cap are
summed into a tail mass, and the cap doubles until that mass is below
rounding in every bound, which scores it as zero.  A word's law
depends only on its autocorrelation (Guibas & Odlyzko, 1981): words of one
class have the same law in exact arithmetic, though the float DP may give
them laws that differ in the last bits, so the marker search scores each
autocorrelation class once per call.

The Monte-Carlo detector checks the bound.  It draws the payload as
packed bytes.  Without noise it needs no correlation at all: offset 0
correlates to exactly m, the most any offset can reach, and another
offset ties it exactly when its window equals the marker.  So the tied
peaks are offset 0 plus the C reproductions, and the detector counts C by
running the same prefix automaton over the drawn bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .simcore import (MonteCarloConfig, SeededStream, check_count, check_real,
                      run_monte_carlo)

__all__ = [
    "Marker",
    "OccurrenceDistribution",
    "occurrence_distribution",
    "p_ub",
    "p_ub_list",
    "search_marker",
    "simulate_sync",
]

_SEARCH_TAG = 101
_SIM_TAG = 102

_FIRST_CAP = 32  # the occurrence DP's first count cap

# targets ~2^22 doubles of scratch per simulation block
_SIM_BLOCK_ELEMS = 2 ** 22


@dataclass(frozen=True)
class Marker:
    """Synchronization word as a tuple of 0/1 bits."""

    bits: tuple

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("marker must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("marker bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def from_string(cls, s: str) -> "Marker":
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"marker string must be nonempty over 0/1, got {s!r}")
        return cls(tuple(int(c) for c in s))

    @classmethod
    def alternating(cls, n_bits: int) -> "Marker":
        """The 1010... word of length n_bits; the search's baseline candidate."""
        return cls(tuple((i + 1) % 2 for i in range(check_count("n_bits", n_bits))))

    def __len__(self) -> int:
        return len(self.bits)

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def symbols(self) -> np.ndarray:
        """Antipodal mapping bit 0 -> +1, bit 1 -> -1."""
        return 1.0 - 2.0 * np.asarray(self.bits, dtype=float)


@dataclass(frozen=True)
class OccurrenceDistribution:
    """Exact distribution of the false-sync occurrence count C.

    probs maps each count with positive mass to its probability; tail_mass
    is whatever sits above the DP's count cap, at most eps / (payload_bits + 1).
    """

    marker: Marker
    payload_bits: int
    probs: dict = field(compare=False)
    tail_mass: float = 0.0


def _prefix_automaton(bits: tuple) -> np.ndarray:
    """KMP-style transition table delta[state, bit] over states 0..m.

    State q < m means the last q bits read equal the marker prefix of
    length q; state m means a match just completed and continues from its
    longest proper border.
    """
    m = len(bits)
    fail = [0] * (m + 1)
    k = 0
    for i in range(1, m):
        while k and bits[i] != bits[k]:
            k = fail[k]
        if bits[i] == bits[k]:
            k += 1
        fail[i + 1] = k
    delta = np.zeros((m + 1, 2), dtype=np.intp)
    for q in range(m + 1):
        for b in (0, 1):
            if q < m and bits[q] == b:
                delta[q, b] = q + 1
            elif q == 0:
                delta[q, b] = 0
            else:
                delta[q, b] = delta[fail[q], b]
    return delta


def _byte_tables(delta: np.ndarray):
    """State after each payload byte, and the matches completed inside it.

    Two (m+1) x 256 tables over the automaton delta, indexed [state, byte].
    The first bit of a byte is its high bit, as np.packbits and
    np.unpackbits order them.
    """
    m = delta.shape[0] - 1
    after, hits = delta, (delta == m).astype(np.intp)
    for _ in range(3):  # 1-, 2- and 4-bit tables doubled; the first half goes high
        width = after.shape[1]
        hits = (hits[:, :, None] + hits[after]).reshape(m + 1, width * width)
        after = after[after].reshape(m + 1, width * width)
    return after, hits


def _joint_law(delta: np.ndarray, payload_bits: int, cap: int):
    """One DP pass: the joint law over (automaton state, count 0..cap), and
    the mass of the counts above cap, which the steps keep and sum once."""
    m = delta.shape[0] - 1
    states = m + 1
    source = np.arange(states)[:, None]
    prob = np.zeros((states, cap + 1))
    prob[m, 0] = 1.0  # the marker itself was just read; its match is not counted
    tail = 0.0
    one_bit = (delta, (delta == m).astype(np.intp))
    for (after, hits), steps in ((_byte_tables(delta), payload_bits // 8),
                                 (one_bit, payload_bits % 8)):
        # whole bytes, then the leftover bits, each step one transfer matrix
        # with the uniform input weight folded in: row k*(m+1) + t, column q
        # is the mass moved from state q to state t completing k matches
        k_max = int(hits.max())
        step = np.bincount(((hits * states + after) * states + source).ravel(),
                           minlength=(k_max + 1) * states * states)
        step = step.reshape((k_max + 1) * states, states) / after.shape[1]
        for _ in range(steps):
            moved = (step @ prob).reshape(k_max + 1, states, cap + 1)
            prob = moved[0]
            for k in range(1, k_max + 1):
                kept = max(cap + 1 - k, 0)  # counts that stay at or below the cap
                prob[:, k:] += moved[k, :, :kept]
                tail += float(moved[k, :, kept:].sum())
    return prob, tail


def occurrence_distribution(marker: Marker, payload_bits: int) -> OccurrenceDistribution:
    """Exact law of C for i.i.d. uniform payload bits behind the marker.

    The DP counts up to a cap, min(_FIRST_CAP, payload_bits), and reruns at
    twice the cap while the mass above it exceeds eps / (payload_bits + 1):
    every p_ub_list is at least 1 / (payload_bits + 1) and moves by at most
    that tail_mass, so by no more than rounding.  Probabilities are dyadic
    rationals, exact in floats for payloads up to ~50 bits.
    """
    payload_bits = check_count("payload_bits", payload_bits, 0)
    delta = _prefix_automaton(marker.bits)
    cap = min(_FIRST_CAP, payload_bits)
    prob, tail = _joint_law(delta, payload_bits, cap)
    # at cap = payload_bits no count passes the cap, so the tail is 0
    while tail > np.finfo(float).eps / (payload_bits + 1):
        cap = min(2 * cap, payload_bits)
        prob, tail = _joint_law(delta, payload_bits, cap)

    by_count = prob.sum(axis=0)
    total = float(by_count.sum()) + tail
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"distribution mass drifted to {total}")
    probs = {int(i): float(p) for i, p in enumerate(by_count) if p > 0.0}
    return OccurrenceDistribution(marker, payload_bits, probs, tail)


def p_ub(dist: OccurrenceDistribution) -> float:
    """Correct-sync upper bound sum_i Pr{C=i}/(i+1): p_ub_list at l = 1.

    Tail mass, below rounding, contributes zero.
    """
    return p_ub_list(dist, 1)


def p_ub_list(dist: OccurrenceDistribution, list_len: int) -> float:
    """List-detector bound: Pr{C < l} plus l/(i+1) weighted mass above.

    Nondecreasing in l.  Tail mass contributes zero, as in p_ub.
    """
    list_len = check_count("list_len", list_len)
    acc = 0.0
    for i, p in dist.probs.items():
        acc += p if i < list_len else p * list_len / (i + 1)
    return float(acc)


def _marker_from_int(value: int, n_bits: int) -> Marker:
    return Marker(tuple((value >> (n_bits - 1 - k)) & 1 for k in range(n_bits)))


def search_marker(n_bits: int, payload_bits: int, budget: int = 2048,
                  seed: int = 0) -> OccurrenceDistribution:
    """The law of the best marker of length n_bits by the p_ub criterion.

    Exhaustive when the budget covers all 2^n_bits words (and n_bits is
    small enough for that to be sane); otherwise seeded hill climbing on
    single-bit flips with random restarts.  The alternating word is always
    evaluated first, so the result is never worse than it.  Restarts draw
    a word as a 64-bit integer, so above 64 bits the climb raises at its
    first restart, after 2 * n_bits + 1 flips that did not improve.  The
    result is the winner's OccurrenceDistribution, the law the search
    scored it by, whose tail is below rounding; its marker is the winner.
    Candidates are n-bit integers, first bit high, and a Marker is built
    only for a word whose law the search computes.
    """
    n_bits = check_count("n_bits", n_bits)
    budget = check_count("budget", budget)

    # words of one autocorrelation class have one law in exact arithmetic,
    # though the float DP may differ in the last bits, so score each class
    # once per search: the climb revisits classes
    laws = {}

    def scored(word: int):
        """(p_ub, law) of word's autocorrelation class."""
        # the word overlaps itself shifted by j when its top n - j bits
        # equal its low n - j bits
        key = tuple((word >> j) == word & ((1 << (n_bits - j)) - 1)
                    for j in range(1, n_bits))
        entry = laws.get(key)
        if entry is None:
            dist = occurrence_distribution(_marker_from_int(word, n_bits),
                                           payload_bits)
            entry = laws[key] = (p_ub(dist), dist)
        return entry

    # a class's law is that of the first word of it the search scored, and
    # the winner is that word: a later one only ties it, and ties never win
    if n_bits <= 16 and 2 ** n_bits <= budget:
        _, best = max(map(scored, range(2 ** n_bits)), key=lambda entry: entry[0])
    else:
        rng = SeededStream(seed).derive(_SEARCH_TAG, n_bits, payload_bits).generator()
        current = int(Marker.alternating(n_bits).as_string(), 2)
        current_v, best = scored(current)
        best_v = current_v
        stale = 0
        for _ in range(budget - 1):  # one evaluation per step after the baseline
            # restart: greedy flips stopped paying, take a fresh random word
            restart = stale > 2 * n_bits
            if restart:
                if n_bits > 64:
                    raise ValueError(f"n_bits must be at most 64 for a climb that "
                                     f"restarts, got {n_bits}")
                # uint64 reaches 2^64 and draws as int64 does below it
                cand = int(rng.integers(0, 2 ** n_bits, dtype=np.uint64))
            else:
                # bit pos of the word, counted from its first (high) bit
                cand = current ^ (1 << (n_bits - 1 - int(rng.integers(0, n_bits))))
            v, law = scored(cand)
            if restart or v > current_v:
                current, current_v, stale = cand, v, 0
                if v > best_v:
                    best, best_v = law, v
            else:
                stale += 1
    return best


def _reproduction_counter(marker: Marker):
    """Counter of the marker reproductions C in each row of packed payloads.

    The returned function count(packed, n) maps a (trials, ceil(n/8))
    uint8 array, each row n payload bits packed first bit high as by
    np.packbits, to the per-row count of offsets 1..n whose window equals
    the marker.  Every row starts the prefix automaton in the full-match
    state (the marker was just read) and steps it through the whole bytes
    with _byte_tables; the n mod 8 leading bits of the last byte step one
    at a time, and its other bits are ignored.
    """
    m = len(marker)
    delta = _prefix_automaton(marker.bits)
    after, hits = (table.ravel() for table in _byte_tables(delta))

    def count(packed: np.ndarray, n: int) -> np.ndarray:
        state = np.full(packed.shape[0], m, dtype=np.intp)
        c = np.zeros(packed.shape[0], dtype=np.intp)
        for col in np.ascontiguousarray(packed[:, :n // 8].T):
            ix = state * 256 + col
            c += hits[ix]
            state = after[ix]
        if n % 8:
            last = packed[:, n // 8]
            for k in range(7, 7 - n % 8, -1):
                state = delta[state, (last >> k) & 1]
                c += state == m
        return c

    return count


def simulate_sync(marker: Marker, payload_bits: int, snr_db,
                  mc: MonteCarloConfig, workers: int = 1) -> float:
    """Monte-Carlo correct-sync probability of the correlation detector.

    BPSK packet, sliding correlation over the in-packet offsets 0..payload
    (no samples outside the packet), argmax with uniform tie breaking.
    Each trial draws its payload as ceil(n/8) uniform uint8 bytes, first
    bit high, and ignores the bits past n.
    snr_db is None or a real number; a string or a bool is rejected by
    name.  snr_db = None means noiseless reception, where the estimate
    converges to the p_ub bound exactly: offset 0 then correlates to m,
    which no offset can exceed, and an offset ties it exactly when its
    window reproduces the marker.  The ties are therefore 1 + C, and the
    noiseless path counts C from the drawn bytes without unpacking them
    or building the packet and its correlations.
    """
    m = len(marker)
    n = check_count("payload_bits", payload_bits, 0)
    # the block layout and draws of both paths are the same, so the
    # noiseless estimate equals the correlation detector's bit for bit
    block = max(1, _SIM_BLOCK_ELEMS // max(m + n, 1))
    n_bytes = (n + 7) // 8

    def draw_payload(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.integers(0, 256, size=(count, n_bytes), dtype=np.uint8)

    if snr_db is None:
        count_reproductions = _reproduction_counter(marker)

        def block_fn(rng: np.random.Generator, start: int, count: int):
            ties = 1 + count_reproductions(draw_payload(rng, count), n)
            u = rng.random(count)
            return (np.count_nonzero(u * ties < 1.0),)
    else:
        msym = marker.symbols()
        try:
            sigma = 10.0 ** (-check_real("snr_db", snr_db) / 20.0)
        except OverflowError:
            sigma = math.inf
        if not math.isfinite(sigma):
            raise ValueError("snr_db must be None or give a finite noise level "
                             f"10^(-snr_db/20), got {snr_db!r}")

        def block_fn(rng: np.random.Generator, start: int, count: int):
            packet = np.empty((count, m + n))
            packet[:, :m] = msym
            # antipodal 1 - 2*bits built in place; the bits die right away
            bits = np.unpackbits(draw_payload(rng, count), axis=1, count=n)
            np.multiply(bits, -2.0, out=packet[:, m:])
            packet[:, m:] += 1.0
            packet += rng.normal(0.0, sigma, packet.shape)
            corr = np.empty((count, n + 1))
            for j in range(n + 1):
                corr[:, j] = packet[:, j:j + m] @ msym
            peak = corr.max(axis=1)
            ties = (corr == peak[:, None]).sum(axis=1)
            at_true = corr[:, 0] == peak
            # uniform pick among tied peaks: the true offset wins w.p. 1/ties
            u = rng.random(count)
            wins = at_true & (u * ties < 1.0)
            return (wins.sum(),)

    (wins,) = run_monte_carlo(mc.trials, block, mc.stream(_SIM_TAG, m, n), block_fn,
                              workers=workers)
    return float(wins) / mc.trials

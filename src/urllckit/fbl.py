"""Finite-blocklength reliability over a band-limited AWGN link.

Short packets do not get the asymptotic capacity; the normal approximation
ties error probability to blocklength through the channel dispersion.  A
link observed over bandwidth B for latency T offers N = 2*B*T real channel
uses, and spreading a fixed transmit power over more bandwidth scales the
per-use SNR down as gamma = gamma0 * B0 / B.  This module carries the
resulting error calculus plus a minimum-bandwidth solver for a packet of
data and metadata bits, encoded jointly or separately.  The solver works on
the packet error itself (packet_error <= eps), never on 1 - eps, so targets
far below 1e-16 are met as stated.  It has one path: an array of reference
SNRs is solved as one batch, and a single SNR is a batch of one.  Its
bracket scan bounds the packet error from below on two levels: over the
64-point blocks of the blocklength grid, then over the 8-point sub-blocks
of each SNR's first block that may hold a hit and the block after it.  It
skips every point whose bound exceeds the target and scans the rest in
rounds of 16, 32, 64, ... points per SNR until each SNR has its first
hit, so a 20-SNR solve evaluates about 3,000 points, not tens of
thousands.  A skipped point cannot meet the target, so the bracket equals
that of a scan of every grid point.  Each bracket is then refined by the
same first-hit rule over the points bisection would visit, 15 midpoints
per packet_error call, so three calls give bisection's 1e-6-relative
result bit for bit wherever the hits within the bracket all follow its
misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simcore import (check_count, check_nonnegative, check_positive,
                      check_probability, q_function, union_error)
# not called here: bench/tracing.py patches fbl.bisect by name, and fails
# if it is missing
from .simcore import bisect  # noqa: F401

__all__ = [
    "LOG2E",
    "LinkBudget",
    "PacketSpec",
    "awgn_params",
    "error_prob",
    "asymptotic_bits",
    "packet_error",
    "success_probability",
    "min_bandwidth",
]

LOG2E = math.log2(math.e)

# analytic-ceiling guard band; near the boundary the grid scan decides
_CEILING_GUARD = 0.02

_N_MAX = 2 ** 22
# geometric blocklength grid of the bracket scan, built once at import
_GRID = np.geomspace(2.0, float(_N_MAX), 4096)
# the grid's blocks of 64 columns, bounded before any column is scanned:
# block k runs from column _EDGES[k] to column _EDGES[k + 1], so neighbours
# share their edge column and the bounds need the 65 edge columns only
_BLOCK = 64
_EDGES = np.append(np.arange(0, _GRID.size, _BLOCK), _GRID.size - 1)
# the second floor level: the 8-column sub-blocks of an SNR's first open
# block and the block after it, as offsets of their 17 edge columns from
# the first open block's start
_SUB_EDGES = np.arange(0, 2 * _BLOCK + 1, 8)
# relative margin by which a block's error floor must exceed eps_target
# before the scan skips the block, so rounding in the floor skips no hit
_MISS_MARGIN = 1e-9
# columns per SNR in the first round of the bracket scan; each later round
# takes twice as many, so a hit past the bounded span still takes few rounds
_FIRST_WIDTH = 16
# (SNR, blocklength) elements per packet_error call beyond which the rounds
# stop doubling, so many SNRs far from a hit hold no large array; a round
# still takes _FIRST_WIDTH columns per SNR
_SCAN_TILE = _GRID.size
# the refinement of a bracket [_GRID[k - 1], _GRID[k]] stops at a width of
# _REFINE_TOL * _GRID[k - 1], after the fewest halvings that reach it; the
# grid's relative step must not lie near a power of two times the tolerance,
# or rounding could change that count from one bracket to the next
_REFINE_TOL = 1e-6
_HALVINGS = np.log2(np.diff(_GRID) / _GRID[:-1] / _REFINE_TOL)
_REFINE_LEVELS = math.ceil(_HALVINGS.max())
assert _REFINE_LEVELS - 1 + 1e-3 < _HALVINGS.min() and _HALVINGS.max() < _REFINE_LEVELS - 1e-3
# the halvings are taken _ROUND_LEVELS at a time: one packet_error call per
# round evaluates the 2^_ROUND_LEVELS - 1 interior points of the bracket
_ROUND_LEVELS = 4
assert _REFINE_LEVELS % _ROUND_LEVELS == 0
_MODES = ("joint", "separate")


@dataclass(frozen=True, eq=False)
class LinkBudget:
    """Reference operating point: SNR gamma0 at bandwidth b0_hz, latency latency_s.

    gamma0 may be an array of reference SNRs sharing b0_hz and latency_s;
    the functions below then broadcast over it.  Budgets compare and hash
    by identity, so an array gamma0 breaks neither.
    """

    gamma0: float
    b0_hz: float
    latency_s: float

    def __post_init__(self):
        for name in ("gamma0", "b0_hz", "latency_s"):
            check_positive(name, getattr(self, name))
        with np.errstate(over="ignore"):
            bits = np.asarray(asymptotic_bits(self))
        if not np.isfinite(bits).all():
            raise ValueError("gamma0 * b0_hz * latency_s overflows: asymptotic_bits = inf")


@dataclass(frozen=True)
class PacketSpec:
    """Payload sizes in bits; data and metadata can be coded together or apart."""

    data_bits: int
    metadata_bits: int = 0

    def __post_init__(self):
        for name in ("data_bits", "metadata_bits"):
            object.__setattr__(self, name, check_count(name, getattr(self, name), 0))
        if self.data_bits + self.metadata_bits == 0:
            raise ValueError("packet must carry at least one bit")

    @classmethod
    def from_bytes(cls, data_bytes: int, metadata_bytes: int = 0) -> "PacketSpec":
        return cls(8 * data_bytes, 8 * metadata_bytes)

    @property
    def total_bits(self) -> int:
        return self.data_bits + self.metadata_bits


def awgn_params(gamma):
    """Capacity C and dispersion V per real channel use at SNR gamma.

    C(gamma) = 0.5*log2(1+gamma), V(gamma) = gamma*(gamma+2)/(2*(gamma+1)^2)
    in squared bits.  V grows from 0 toward log2(e)^2 / 2, which it equals
    in double precision from gamma = 1e150 on.
    """
    check_nonnegative("gamma", gamma)
    c, v = _awgn(np.asarray(gamma, dtype=float))
    if c.ndim == 0:
        return float(c), float(v)
    return c, v


def _awgn(g):
    # awgn_params of a float array, unchecked, for the solver's inner loops.
    # V is taken at min(g, 1e150): there it already equals its limit bit for
    # bit, and above about 1e154 (g + 1)^2 would overflow to a V of 0 or NaN
    gv = np.minimum(g, 1e150)
    return 0.5 * np.log2(1.0 + g), gv * (gv + 2.0) / (2.0 * (gv + 1.0) ** 2) * LOG2E ** 2


def error_prob(n, gamma, bits):
    """Normal-approximation decoding error for `bits` over n real uses at SNR gamma.

    Q((n*C - bits + 0.5*log2(n)) / sqrt(n*V)); strictly increasing in bits.
    The zero-dispersion limit (gamma -> 0) degenerates to a hard threshold
    on the numerator sign.
    """
    check_positive("n", n)
    check_nonnegative("gamma", gamma)
    check_nonnegative("bits", bits)
    n, gamma, bits = (np.asarray(a, dtype=float) for a in (n, gamma, bits))
    return q_function(_normal_arg(*_normal_terms(n, gamma, bits)))


def _normal_terms(n, gamma, bits):
    # numerator n*C - bits + 0.5*log2(n) and variance n*V of error_prob's
    # Q argument; both grow strictly with n when gamma falls as 1/n
    c, v = _awgn(gamma)
    return n * c - bits + 0.5 * np.log2(n), n * v


def _normal_arg(num, nv):
    # num / sqrt(nv), or the sign's hard threshold where nv is not positive
    # (zero or NaN); the threshold is formed only where some nv needs it
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = num / np.sqrt(nv)
    flat = ~(nv > 0)
    if flat.any():
        arg = np.where(flat, np.where(num > 0, np.inf, np.where(num < 0, -np.inf, 0.0)), arg)
    return arg


def asymptotic_bits(budget: LinkBudget) -> float:
    """Infinite-bandwidth information limit gamma0 * B0 * T * log2(e) in bits.

    An array for an array gamma0.
    """
    return budget.gamma0 * budget.b0_hz * budget.latency_s * LOG2E


def packet_error(budget: LinkBudget, pkt: PacketSpec, n, mode: str = "joint"):
    """Packet error probability at n = 2*B*T real channel uses.

    joint: one codeword over all n uses carrying data+metadata.
    separate: metadata and data each get n/2 uses at the same per-use SNR,
    and the packet fails when either fails (simcore.union_error).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    check_positive("n", n)
    return _packet_error(budget.gamma0, budget, pkt, n, mode)


def _packet_error(gamma0, budget: LinkBudget, pkt: PacketSpec, n, mode: str):
    # packet_error at reference SNR(s) gamma0 in place of budget.gamma0,
    # unchecked: the batched solver passes subsets of a validated gamma0
    # and its own positive grid, and checks nothing per chunk
    n = np.asarray(n, dtype=float)
    gamma = gamma0 * 2.0 * budget.b0_hz * budget.latency_s / n
    if mode == "joint":
        out = q_function(_normal_arg(*_normal_terms(n, gamma, pkt.total_bits)))
    else:
        # metadata and data stacked on a leading axis: one kernel call, so
        # the capacity and dispersion are computed once per per-use SNR
        bits = np.reshape([pkt.metadata_bits, pkt.data_bits], (2,) + (1,) * gamma.ndim)
        meta, data = q_function(_normal_arg(*_normal_terms(n / 2.0, gamma, bits)))
        out = union_error(meta, data)
    return float(out) if np.ndim(out) == 0 else out


def success_probability(budget: LinkBudget, pkt: PacketSpec, n, mode: str = "joint"):
    """Packet success probability 1 - packet_error at n real channel uses."""
    return 1.0 - packet_error(budget, pkt, n, mode)


def min_bandwidth(budget: LinkBudget, pkt: PacketSpec, eps_target: float,
                  mode: str = "joint"):
    """Smallest bandwidth (Hz) whose packet error is at most eps_target.

    Returns math.inf when infeasible: past the analytic ceiling (with a 2%
    guard band) or when no blocklength up to 2^22 meets the target.  The
    bracket is the first point of a geometric scan over n that meets the
    target and the point before it.  The scan skips the 64-point blocks of
    its grid whose lower bound on the packet error (_error_floor) exceeds
    eps_target, and an SNR with no other block is infeasible without a
    scan; the same bound over 8-point sub-blocks then skips the leading
    points of its first open block and the next (_first_hits).  The
    skipped points cannot meet the target, so the bracket, and the
    bandwidth, equal those of a scan of every point.  The bracket is
    refined to ~1e-6 relative by the same first-hit rule over the midpoints
    bisection would visit (_refine): the result is the first of them that
    meets the target, so the packet error at the returned bandwidth itself
    is at most eps_target.  Wherever the points that meet the target all
    follow those that miss it within the bracket, as in every case seen,
    this is simcore.bisect's result bit for bit.  Errors are compared with
    eps_target directly, so targets below the double-precision spacing of
    1 (1e-17, 1e-20) stay distinct.

    All SNRs of budget.gamma0 are solved as one batch: they are scanned
    together in (SNR x blocklength) rounds, and all brackets are refined
    together, three packet_error calls in all, so each element equals the
    solve at that SNR alone.  An array gamma0 returns an array of its
    shape; a scalar gamma0 is a batch of one and returns a float.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    check_probability("eps_target", eps_target, strict=True)

    gamma0 = np.asarray(budget.gamma0, dtype=float)
    ceiling = asymptotic_bits(budget)
    if mode == "joint":
        required, available = pkt.total_bits, ceiling
    else:
        required, available = max(pkt.data_bits, pkt.metadata_bits), ceiling / 2.0
    below_ceiling = np.ravel(required < available * (1.0 + _CEILING_GUARD))

    rows = np.flatnonzero(below_ceiling)
    g = gamma0.ravel()[rows]
    first = _first_hits(g, budget, pkt, eps_target, mode)

    n_star = np.full(gamma0.size, math.inf)
    n_star[rows[first == 0]] = _GRID[0]
    inner = first > 0
    if inner.any():
        n_star[rows[inner]] = _refine(g[inner], budget, pkt, eps_target, mode,
                                      _GRID[first[inner] - 1], _GRID[first[inner]])
    b_hz = n_star / (2.0 * budget.latency_s)
    return float(b_hz[0]) if gamma0.ndim == 0 else b_hz.reshape(gamma0.shape)


def _first_hits(gamma0, budget, pkt, eps_target, mode):
    """Per reference SNR, the first _GRID index where packet_error <= eps_target.

    -1 where no grid point meets the target.  The columns a first hit can
    occupy are found on two floor levels: _error_floor over the 64-column
    blocks of the grid gives each SNR's first open block (one whose floor
    does not rule out a hit), and an SNR with none is -1 without a scan;
    the same bound over the 8-column sub-blocks of that block and the next
    one moves its start to the first open sub-block, or past the two blocks
    if none is open.  Every skipped column lies in a block or sub-block
    whose floor exceeds eps_target, so it holds no hit, and the result
    equals a scan of every column.  From its start each SNR still without a
    hit is scanned in rounds of _FIRST_WIDTH columns, twice as many each
    round, so the scan stops once every SNR has its first hit; a round
    holds at most _SCAN_TILE elements unless _FIRST_WIDTH columns per SNR
    take more.  Every round restarts an SNR whose start lies in a closed
    block at its next open block, and an SNR with none left is -1, so the
    scan skips what the first level closed.  The sub-block bound is
    _error_floor on finer edges, so it divides by the variance at each
    sub-block's first column, which keeps it a bound where the error falls
    and rises again within a sub-block.
    """
    first = np.full(gamma0.size, -1)
    open_ = _open_blocks(gamma0[:, None], budget, pkt, eps_target, _GRID[_EDGES], mode)
    searching = np.flatnonzero(open_.any(axis=1))
    start = _EDGES[open_[searching].argmax(axis=1)]
    edges = start[:, None] + _SUB_EDGES
    # edges past the grid's end repeat its last column
    sub_open = _open_blocks(gamma0[searching, None], budget, pkt, eps_target,
                            _GRID[np.minimum(edges, _GRID.size - 1)], mode)
    # the first open sub-block's start, or past the span where none is open
    start = edges[np.arange(searching.size), _first_hit(sub_open)]
    # per SNR and block, the start of the first open block from it on, or
    # past the grid's end where none is left
    next_open = np.where(open_, _EDGES[:-1], _GRID.size)
    next_open = np.minimum.accumulate(next_open[:, ::-1], axis=1)[:, ::-1]
    width = _FIRST_WIDTH
    while True:
        # a start in a closed block moves on to the SNR's next open block
        block = np.minimum(start // _BLOCK, next_open.shape[1] - 1)
        start = np.maximum(start, next_open[searching, block])
        more = start < _GRID.size
        searching, start = searching[more], start[more]
        if not searching.size:
            return first
        w = min(width, max(_FIRST_WIDTH, _SCAN_TILE // searching.size),
                _GRID.size - start.min())
        # a row at the grid's end repeats its last column; argmax keeps the first
        cols = np.minimum(start[:, None] + np.arange(w), _GRID.size - 1)
        hit = _packet_error(gamma0[searching, None], budget, pkt, _GRID[cols], mode) <= eps_target
        at = _first_hit(hit)
        found = at < w
        first[searching[found]] = cols[found, at[found]]
        searching, start = searching[~found], start[~found] + w
        width *= 2


def _open_blocks(gamma0, budget, pkt, eps_target, n, mode):
    # blocks [n[k], n[k + 1]] whose error floor does not rule out a hit
    return _error_floor(gamma0, budget, pkt, n, mode) <= eps_target * (1.0 + _MISS_MARGIN)


def _first_hit(hit):
    # column of each row's first True, or the row length where it has none
    return np.where(hit.any(axis=1), hit.argmax(axis=1), hit.shape[1])


def _refine(gamma0, budget, pkt, eps_target, mode, lo, hi):
    """Per reference SNR, the first point of its bracket's subgrid meeting eps_target.

    The subgrid is that of bisection: every midpoint 0.5*(lo + hi) down to
    _REFINE_LEVELS halvings of [lo, hi], whose upper end hi meets the target
    and lower end lo does not.  Each round splits the current bracket
    _ROUND_LEVELS levels deep by those recursive midpoints, so its points
    are the very floats bisection would visit, evaluates the interior ones
    in one packet_error call, and keeps the first hit and the point before
    it (hi where none hits).  Where the hits within a bracket all follow its
    misses, this is simcore.bisect's result on (packet_error - eps_target,
    lo, hi, tol=_REFINE_TOL * lo) bit for bit: an exact zero, which bisect
    returns at once, is then the first hit of the subgrid.
    """
    rows = np.arange(lo.size)
    pts = np.empty((lo.size, 2 ** _ROUND_LEVELS + 1))
    for _ in range(_REFINE_LEVELS // _ROUND_LEVELS):
        pts[:, 0], pts[:, -1] = lo, hi
        for level in range(_ROUND_LEVELS - 1, -1, -1):
            step = 2 ** level
            pts[:, step::2 * step] = 0.5 * (pts[:, :-step:2 * step] + pts[:, 2 * step::2 * step])
        hit = _packet_error(gamma0[:, None], budget, pkt, pts[:, 1:-1], mode) <= eps_target
        above = _first_hit(hit) + 1
        lo, hi = pts[rows, above - 1], pts[rows, above]
    return hi


def _error_floor(gamma0, budget, pkt, n, mode):
    """Lower bound on packet_error over each block [n[k], n[k + 1]] of blocklengths.

    With gamma = gamma0*2*B0*T/n, error_prob's numerator and variance both
    grow with n, so over a block its Q argument is at most
    num(n[k + 1]) / sqrt(nV(n[k])) when num(n[k + 1]) > 0, and at most
    num(n[k + 1]) / sqrt(nV(n[k + 1])) otherwise; the floor is Q of that.
    Both sides count: for eps_target >= 1/2 a block with a negative
    numerator can hold a hit.  Separate mode fails at least as often as
    its larger payload over n/2 uses, so the floor takes that payload alone.
    """
    gamma = gamma0 * 2.0 * budget.b0_hz * budget.latency_s / n
    if mode == "joint":
        num, nv = _normal_terms(n, gamma, pkt.total_bits)
    else:
        num, nv = _normal_terms(n / 2.0, gamma, max(pkt.data_bits, pkt.metadata_bits))
    num_hi = num[..., 1:]
    return q_function(_normal_arg(num_hi, np.where(num_hi > 0, nv[..., :-1], nv[..., 1:])))

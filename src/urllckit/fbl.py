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
SNRs is solved as one batch, and a single SNR is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simcore import (bisect, check_count, check_positive, check_probability,
                      q_function, union_error)

__all__ = [
    "LOG2E",
    "LinkBudget",
    "PacketSpec",
    "awgn_params",
    "error_prob",
    "snr_at_bandwidth",
    "asymptotic_bits",
    "packet_error",
    "success_probability",
    "min_bandwidth",
]

LOG2E = math.log2(math.e)

# analytic-ceiling guard band; near the boundary the grid scan decides
_CEILING_GUARD = 0.02

_N_MAX = 2 ** 22
_BRACKET_POINTS = 4096
# (SNR, blocklength) elements per packet_error call of the bracket scan: a
# single SNR scans the whole grid at once, many SNRs take narrower chunks
_SCAN_TILE = _BRACKET_POINTS
_MODES = ("joint", "separate")


@dataclass(frozen=True)
class LinkBudget:
    """Reference operating point: SNR gamma0 at bandwidth b0_hz, latency latency_s.

    gamma0 may be an array of reference SNRs sharing b0_hz and latency_s;
    the functions below then broadcast over it.
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

    def __eq__(self, other):
        # value equality per field, also for an array gamma0
        if not isinstance(other, LinkBudget):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("gamma0", "b0_hz", "latency_s"))

    def __hash__(self):
        # equal under np.array_equal means equal shape and equal values,
        # and Python hashes equal numbers alike whatever their type
        return hash(tuple((np.shape(v), tuple(np.ravel(v).tolist()))
                          for v in (self.gamma0, self.b0_hz, self.latency_s)))

    def channel_uses(self, b_hz):
        """Real channel uses available at bandwidth b_hz within the latency."""
        return 2.0 * np.asarray(b_hz, dtype=float) * self.latency_s


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
    in squared bits.  V grows from 0 toward log2(e)^2 / 2.
    """
    g = np.asarray(gamma, dtype=float)
    if (g < 0).any():
        raise ValueError("SNR must be nonnegative")
    c = 0.5 * np.log2(1.0 + g)
    v = g * (g + 2.0) / (2.0 * (g + 1.0) ** 2) * LOG2E ** 2
    if c.ndim == 0:
        return float(c), float(v)
    return c, v


def error_prob(n, gamma, bits):
    """Normal-approximation decoding error for `bits` over n real uses at SNR gamma.

    Q((n*C - bits + 0.5*log2(n)) / sqrt(n*V)); strictly increasing in bits.
    The zero-dispersion limit (gamma -> 0) degenerates to a hard threshold
    on the numerator sign.
    """
    n = np.asarray(n, dtype=float)
    if (n <= 0).any():
        raise ValueError("blocklength must be positive")
    bits = np.asarray(bits, dtype=float)
    if (bits < 0).any():
        raise ValueError("bits must be nonnegative")
    c, v = awgn_params(gamma)
    c = np.asarray(c, dtype=float)
    v = np.asarray(v, dtype=float)
    num = n * c - bits + 0.5 * np.log2(n)
    nv = n * v
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.where(nv > 0, num / np.sqrt(np.where(nv > 0, nv, 1.0)),
                       np.where(num > 0, np.inf, np.where(num < 0, -np.inf, 0.0)))
    eps = q_function(arg)
    if np.ndim(eps) == 0 and np.ndim(n) == 0 and np.ndim(bits) == 0:
        return float(eps)
    return eps


def snr_at_bandwidth(budget: LinkBudget, b_hz):
    """Per-use SNR when the reference power is spread over bandwidth b_hz."""
    b = np.asarray(b_hz, dtype=float)
    if np.any(b <= 0):
        raise ValueError("bandwidth must be positive")
    out = budget.gamma0 * budget.b0_hz / b
    return float(out) if out.ndim == 0 else out


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
    return _packet_error(budget.gamma0, budget, pkt, n, mode)


def _packet_error(gamma0, budget: LinkBudget, pkt: PacketSpec, n, mode: str):
    # packet_error at reference SNR(s) gamma0 in place of budget.gamma0: the
    # batched solver passes subsets of a validated gamma0 without building
    # (and re-validating) a LinkBudget for each
    n = np.asarray(n, dtype=float)
    gamma = gamma0 * 2.0 * budget.b0_hz * budget.latency_s / n
    if mode == "joint":
        out = error_prob(n, gamma, pkt.total_bits)
    else:
        # metadata and data stacked on a leading axis: one error_prob call,
        # so awgn_params runs once per per-use SNR
        bits = np.reshape([pkt.metadata_bits, pkt.data_bits], (2,) + (1,) * gamma.ndim)
        meta, data = error_prob(n / 2.0, gamma, bits)
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
    bracket comes from a geometric scan over n, refined by bisection to
    ~1e-6 relative; the result is the bracket's upper end, so the packet
    error at the returned bandwidth itself is at most eps_target.  Errors
    are compared with eps_target directly, so targets below the
    double-precision spacing of 1 (1e-17, 1e-20) stay distinct.

    All SNRs of budget.gamma0 are solved as one batch: they are scanned
    together in (SNR x blocklength) tiles, and all brackets are refined by
    a single elementwise bisect call, so each element equals the solve at
    that SNR alone.  An array gamma0 returns an array of its shape; a
    scalar gamma0 is a batch of one and returns a float.
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

    grid = np.geomspace(2.0, float(_N_MAX), _BRACKET_POINTS)
    rows = np.flatnonzero(below_ceiling)
    g = gamma0.ravel()[rows]
    first = _first_hits(g, budget, pkt, eps_target, mode, grid)

    n_star = np.full(gamma0.size, math.inf)
    n_star[rows[first == 0]] = grid[0]
    inner = first > 0
    if inner.any():
        lo, hi, g_inner = grid[first[inner] - 1], grid[first[inner]], g[inner]
        n_star[rows[inner]] = bisect(
            lambda n: _packet_error(g_inner, budget, pkt, n, mode) - eps_target,
            lo, hi, tol=1e-6 * lo,
        )
    b_hz = n_star / (2.0 * budget.latency_s)
    return float(b_hz[0]) if gamma0.ndim == 0 else b_hz.reshape(gamma0.shape)


def _first_hits(gamma0, budget, pkt, eps_target, mode, grid):
    """Per reference SNR, the first grid index where packet_error <= eps_target.

    -1 where no grid point meets the target.  The grid is scanned in column
    chunks over the SNRs still without a hit, so the scan stops once every
    SNR has its first hit.  A chunk holds at most _SCAN_TILE elements, or
    one column when more SNRs than that are still searching.
    """
    first = np.full(gamma0.size, -1)
    searching = np.arange(gamma0.size)
    start = 0
    while searching.size and start < grid.size:
        width = max(1, _SCAN_TILE // searching.size)
        cols = grid[start:start + width]
        hit = _packet_error(gamma0[searching, None], budget, pkt, cols, mode) <= eps_target
        found = hit.any(axis=1)
        first[searching[found]] = start + hit[found].argmax(axis=1)
        searching = searching[~found]
        start += cols.size
    return first

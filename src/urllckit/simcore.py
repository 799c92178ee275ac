"""Shared numerics and seeded Monte-Carlo plumbing.

Everything downstream leans on four numeric primitives (Gaussian tail,
regularized lower incomplete gamma, bisection, and the union of independent
failures, kept in the error domain so 1e-17 stays 1e-17), the three input
checks (a count is an integer, a probability a real in [0, 1], a positive
parameter a finite real above 0), and a reproducible stream abstraction.
MonteCarloConfig.stream is the one rule that keys a simulation's stream
from its master seed.  Streams are keyed Philox generators: the
(master_seed, substream_id) pair is the 128-bit key, so equal pairs give
bit-identical sequences and distinct pairs give independent counter-based
streams.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "NoBracketError",
    "q_function",
    "log_q_function",
    "reg_lower_gamma",
    "union_error",
    "bisect",
    "check_count",
    "check_probability",
    "check_positive",
    "SeededStream",
    "MonteCarloConfig",
    "run_monte_carlo",
    "collect_monte_carlo",
]

_MASK64 = (1 << 64) - 1

# ndtr switches to exact 0.0 once the result drops below the subnormal
# range it can reach internally; beyond this point go through the log tail.
_Q_LOG_SWITCH = 12.0


class NoBracketError(ValueError):
    """Raised when a root finder is handed an interval with no sign change."""


def q_function(x):
    """Gaussian tail probability Pr[Z > x] for standard normal Z.

    Vectorized.  Uses the complementary-error-function route for moderate
    arguments and the log-domain tail beyond, so values stay positive
    (subnormal if need be) instead of underflowing to zero prematurely.
    """
    x = np.asarray(x, dtype=float)
    out = special.ndtr(-x)
    deep = x >= _Q_LOG_SWITCH
    if deep.any():
        out = np.where(deep, np.exp(special.log_ndtr(-x)), out)
    if out.ndim == 0:
        return float(out)
    return out


def log_q_function(x):
    """Natural log of the Gaussian tail, safe far beyond float underflow."""
    x = np.asarray(x, dtype=float)
    out = special.log_ndtr(-x)
    if out.ndim == 0:
        return float(out)
    return out


def reg_lower_gamma(n, x):
    """Regularized lower incomplete gamma P(n, x), vectorized."""
    return special.gammainc(n, x)


def union_error(*eps):
    """P(at least one of independent events occurs), given each one's probability.

    Accumulates a + b - a*b, evaluated as a + b*(1 - a): error probabilities
    go in and come out, never the complement 1 - prod(1 - eps) that rounds
    1e-17 to zero, and a certain event stays exactly 1.  Works on scalars
    and broadcastable arrays alike; no arguments give 0.0.
    """
    out = 0.0
    for e in eps:
        out = out + e * (1.0 - out)
    return out


def bisect(f: Callable, lo, hi, tol=1e-12, max_iter: int = 200):
    """Root of f on [lo, hi] by bisection, to absolute interval width tol.

    Returns an exact zero if one is hit, else the end of the final bracket
    where f < 0, never its midpoint: a caller solving f(x) <= 0 gets a point
    that meets its constraint.  Requires a sign change (or an exact zero)
    on the interval; otherwise raises NoBracketError rather than guessing.

    Scalar lo, hi and tol run a plain float loop and return a float.  Any
    array among them broadcasts the brackets against each other and
    bisects them all at once: f is then called with an array of that shape
    and must act elementwise.  Each element walks exactly the midpoints
    the scalar loop would, so the result equals, element by element, one
    scalar call per bracket; NoBracketError is raised if any element lacks
    a sign change.
    """
    # 0-d inputs take the float loop below, whose steps cost ~1/10 of an
    # elementwise step; Python floats skip even the np.ndim tests
    if not (isinstance(lo, float) and isinstance(hi, float) and isinstance(tol, float)):
        if np.ndim(lo) or np.ndim(hi) or np.ndim(tol):
            return _bisect_array(f, lo, hi, tol, max_iter)
        lo, hi, tol = float(lo), float(hi), float(tol)
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoBracketError(f"no bracket: f({lo}) = {flo}, f({hi}) = {fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo if flo < 0.0 else hi


def _bisect_array(f, lo, hi, tol, max_iter):
    # bisect's elementwise form; each step mirrors one pass of its loop
    lo, hi, tol = (np.array(a, dtype=float)
                   for a in np.broadcast_arrays(lo, hi, tol))
    if not (lo < hi).all():
        i = np.unravel_index(np.argmin(lo < hi), lo.shape)
        raise ValueError(f"need lo < hi, got [{lo[i]}, {hi[i]}] at index {i}")
    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    out = np.where(flo == 0.0, lo, hi)
    done = (flo == 0.0) | (fhi == 0.0)
    unbracketed = ~done & (np.copysign(1.0, flo) == np.copysign(1.0, fhi))
    if unbracketed.any():
        i = np.unravel_index(np.argmax(unbracketed), lo.shape)
        raise NoBracketError(f"no bracket at index {i}: f({lo[i]}) = {flo[i]}, "
                             f"f({hi[i]}) = {fhi[i]}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        stop = ~done & ((hi - lo <= tol) | (mid == lo) | (mid == hi))
        out[stop] = np.where(flo < 0.0, lo, hi)[stop]
        done |= stop
        if done.all():
            return out
        # finished elements are evaluated too (f sees the whole shape); their
        # brackets stay put below, so the values are discarded
        fmid = np.asarray(f(mid), dtype=float)
        zero = ~done & (fmid == 0.0)
        out[zero] = mid[zero]
        done |= zero
        to_lo = ~done & (np.copysign(1.0, fmid) == np.copysign(1.0, flo))
        to_hi = ~done & ~to_lo
        lo = np.where(to_lo, mid, lo)
        flo = np.where(to_lo, fmid, flo)
        hi = np.where(to_hi, mid, hi)
    return np.where(done, out, np.where(flo < 0.0, lo, hi))


def check_count(name: str, value, minimum: int = 1) -> int:
    """value as an int; ValueError naming it unless it is an integer >= minimum.

    Python and numpy integers pass.  Floats fail, integral ones such as 4.0
    included, so a fractional count is never rounded or truncated silently.
    """
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_probability(name: str, value, *, strict: bool = False) -> float:
    """value as a float; ValueError naming it unless a real in [0, 1].

    strict asks for the open interval (0, 1).  NaN fails either way, and so
    does anything that is not a real number (a string, None, a complex).
    """
    if not isinstance(value, numbers.Real) or not (
            0.0 < value < 1.0 if strict else 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in {'(0, 1)' if strict else '[0, 1]'}, "
                         f"got {value}")
    return float(value)


def check_positive(name: str, value) -> None:
    """ValueError naming value unless it, or each element of it, is finite and > 0.

    Arrays and sequences are checked elementwise; the message gives the
    first offending element.  Strings, booleans and complex values fail.
    """
    v = np.asarray(value)
    if v.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    for ok, what in ((v > 0, "positive"), (np.isfinite(v), "finite")):
        if not ok.all():
            raise ValueError(f"{name} must be {what}, got {float(v.flat[ok.argmin()])}")


def _check_seed(name: str, value) -> int:
    """value as an int; ValueError naming it unless an integer in [0, 2^64).

    A fractional seed would otherwise be truncated by the uint64 key.
    """
    v = check_count(name, value, 0)
    if v > _MASK64:
        raise ValueError(f"{name} must fit in 64 bits, got {v}")
    return v


def _mix64(v: int) -> int:
    # splitmix64 finalizer: good avalanche, used only to spread substream ids
    v = (v + 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (v ^ (v >> 31)) & _MASK64


@dataclass(frozen=True)
class SeededStream:
    """Handle for one reproducible random stream.

    The pair (master_seed, substream_id) keys a Philox-4x64 generator.
    Block generators jump the counter in 2^128 strides, so any number of
    fixed-size Monte-Carlo blocks drawn from one stream never overlap and
    are independent of how blocks are scheduled across workers.
    """

    master_seed: int
    substream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "substream_id"):
            object.__setattr__(self, name, _check_seed(name, getattr(self, name)))

    def _key(self) -> np.ndarray:
        return np.array([self.master_seed, self.substream_id], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key()))

    def block_generator(self, block_index: int) -> np.random.Generator:
        # jumped(0) would alias generator(); offset keeps them disjoint
        bg = np.random.Philox(key=self._key()).jumped(block_index + 1)
        return np.random.Generator(bg)

    def derive(self, *indices: int) -> "SeededStream":
        """Child stream keyed by a path of integer indices (order matters)."""
        h = self.substream_id
        for ix in indices:
            h = _mix64(h ^ _mix64(int(ix) & _MASK64))
        return SeededStream(self.master_seed, h)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Trial budget plus master seed for one Monte-Carlo estimate."""

    trials: int
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "trials", check_count("trials", self.trials))
        object.__setattr__(self, "master_seed", _check_seed("master_seed", self.master_seed))

    def stream(self, *indices: int) -> SeededStream:
        return SeededStream(self.master_seed).derive(*indices)


def _run_blocks(trials, block_size, stream, block_fn, workers):
    """Call block_fn once per fixed-size trial block; partials in block order.

    Block b covers trials [b*block_size, ...) and draws from
    stream.block_generator(b), so the partials depend only on
    (trials, block_size, stream), never on the worker count.
    """
    check_count("trials", trials)
    check_count("block_size", block_size)
    n_blocks = (trials + block_size - 1) // block_size
    spans = [
        (b, b * block_size, min(block_size, trials - b * block_size))
        for b in range(n_blocks)
    ]

    def run_one(span):
        b, start, count = span
        return block_fn(stream.block_generator(b), start, count)

    if workers <= 1 or n_blocks == 1:
        return [run_one(s) for s in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, spans))


def run_monte_carlo(
    trials: int,
    block_size: int,
    stream: SeededStream,
    block_fn: Callable[[np.random.Generator, int, int], Sequence],
    workers: int = 1,
):
    """Run block_fn over fixed-size trial blocks and reduce in block order.

    block_fn(rng, start, count) returns a tuple of accumulators (scalars or
    arrays) that add across blocks.  The block layout depends only on
    (trials, block_size) and each block owns a jumped substream, so the
    reduced result is bit-identical for every worker count.
    """
    partials = _run_blocks(trials, block_size, stream, block_fn, workers)
    # stack per-slot accumulators and let numpy's pairwise sum reduce them
    # in block order, independent of completion order
    return tuple(
        np.stack([np.asarray(p[slot]) for p in partials]).sum(axis=0)
        for slot in range(len(partials[0]))
    )


def collect_monte_carlo(
    trials: int,
    block_size: int,
    stream: SeededStream,
    block_fn: Callable[[np.random.Generator, int, int], Sequence[np.ndarray]],
    workers: int = 1,
):
    """Like run_monte_carlo, but block_fn returns per-trial sample arrays
    (leading axis = trials in the block), concatenated in block order."""
    def checked(rng, start, count):
        out = block_fn(rng, start, count)
        for arr in out:
            if np.asarray(arr).shape[0] != count:
                raise ValueError("block_fn must return per-trial arrays")
        return out

    partials = _run_blocks(trials, block_size, stream, checked, workers)
    return tuple(
        np.concatenate([np.asarray(p[slot]) for p in partials])
        for slot in range(len(partials[0]))
    )

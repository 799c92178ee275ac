"""Shared numerics and seeded Monte-Carlo plumbing.

Everything downstream leans on a few numeric primitives (Gaussian tail,
regularized lower incomplete gamma and the inverse of its upper tail,
bisection of an array of brackets in one elementwise loop, and the union
of independent failures, kept in the error domain so 1e-17 stays 1e-17),
the input checks (a count is an integer, a probability a real in [0, 1]
or, elementwise over arrays, in (0, 1), a positive or nonnegative
parameter a finite real above or at 0, a finite one any finite real, also
elementwise), the one Monte-Carlo estimate type (Estimate: mean, standard
error and trial count, with its normal confidence interval), and a
reproducible stream abstraction.
MonteCarloConfig.stream is the one rule that keys a simulation's stream
from its master seed.  Streams are keyed Philox generators: the
(master_seed, substream_id) pair is the 128-bit key, so equal pairs give
bit-identical sequences and distinct pairs give independent counter-based
streams.  A Monte-Carlo block is addressed by its counter: block b of a
stream is the keyed Philox built at counter (b + 1) * 2^128, the state
jumping b + 1 times would reach, so the runners never jump a generator.

scipy.special is imported on first call by the four functions that read
it (q_function, log_q_function, reg_lower_gamma, reg_upper_gamma_inv),
and concurrent.futures only where a run starts a thread pool: importing
this module loads neither, and the access, multiconn and framesync
commands never load scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NoBracketError",
    "q_function",
    "log_q_function",
    "reg_lower_gamma",
    "reg_upper_gamma_inv",
    "union_error",
    "bisect",
    "check_count",
    "check_probability",
    "check_probabilities",
    "check_positive",
    "check_nonnegative",
    "check_finite",
    "check_real",
    "Estimate",
    "SeededStream",
    "MonteCarloConfig",
    "run_monte_carlo",
    "collect_monte_carlo",
]

_MASK64 = (1 << 64) - 1

# ndtr switches to exact 0.0 once the result drops below the subnormal
# range it can reach internally; beyond this point go through the log tail.
_Q_LOG_SWITCH = 12.0

# bisect's cap on halving steps, 2^-200 of the initial bracket
_BISECT_MAX_ITER = 200

# the normal quantile of Estimate.ci's two-sided 95% interval
_Z95 = 1.96


class NoBracketError(ValueError):
    """Raised when a root finder is handed an interval with no sign change."""


def q_function(x):
    """Gaussian tail probability Pr[Z > x] for standard normal Z.

    Vectorized.  Uses the complementary-error-function route for moderate
    arguments and the log-domain tail beyond, so values stay positive
    (subnormal if need be) instead of underflowing to zero prematurely.
    """
    from scipy import special

    x = np.asarray(x, dtype=float)
    out = np.asarray(special.ndtr(-x))
    deep = x >= _Q_LOG_SWITCH
    if deep.any():
        out[deep] = np.exp(special.log_ndtr(-x[deep]))
    if out.ndim == 0:
        return float(out)
    return out


def log_q_function(x):
    """Natural log of the Gaussian tail, safe far beyond float underflow."""
    from scipy import special

    x = np.asarray(x, dtype=float)
    out = special.log_ndtr(-x)
    if out.ndim == 0:
        return float(out)
    return out


def reg_lower_gamma(n, x):
    """Regularized lower incomplete gamma P(n, x), vectorized."""
    from scipy import special

    return special.gammainc(n, x)


def reg_upper_gamma_inv(n, q):
    """x with Q(n, x) = 1 - P(n, x) = q, vectorized.

    Inverts the upper tail directly, so q = 1e-6 or 1e-300 keeps its
    digits instead of being rounded through 1 - q.
    """
    from scipy import special

    return special.gammainccinv(n, q)


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


def bisect(f: Callable, lo, hi, tol=1e-12):
    """Roots of f on the brackets [lo, hi] by bisection, to interval width tol.

    lo, hi and tol broadcast against each other, and every bracket is
    bisected at once: f is called with an array of that shape and must act
    elementwise.  Each element is an exact zero if one is hit, else the end
    of its final bracket where f < 0, never its midpoint: a caller solving
    f(x) <= 0 gets a point that meets its constraint.  Every bracket needs
    a sign change (or an exact zero); otherwise NoBracketError is raised
    rather than guessing.  An element's result does not depend on the
    other brackets, and a scalar bracket is a 0-d batch returned as a float.
    """
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
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        stop = ~done & ((hi - lo <= tol) | (mid == lo) | (mid == hi))
        out[stop] = np.where(flo < 0.0, lo, hi)[stop]
        done |= stop
        if done.all():
            break
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
    out = np.where(done, out, np.where(flo < 0.0, lo, hi))
    return float(out) if out.ndim == 0 else out


def check_count(name: str, value, minimum: int = 1) -> int:
    """value as an int; ValueError naming it unless it is an integer >= minimum.

    Python and numpy integers pass.  Floats fail, integral ones such as 4.0
    included, so a fractional count is never rounded or truncated silently,
    and so do booleans: True is not the count 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_probability(name: str, value, *, strict: bool = False) -> float:
    """value as a float; ValueError naming it unless a real in [0, 1].

    strict asks for the open interval (0, 1).  NaN fails either way, and so
    does anything that is not a real number (a string, None, a complex, a
    boolean: True is not the probability 1).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            0.0 < value < 1.0 if strict else 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in {'(0, 1)' if strict else '[0, 1]'}, "
                         f"got {value}")
    return float(value)


def _check_elements(name: str, value, rules) -> None:
    """ValueError naming value unless each element of it passes every rule.

    rules are (test on the array, description) pairs, tried in order; the
    message gives the first offending element.  Arrays, sequences and
    scalars are accepted; strings, booleans and complex values fail.
    """
    v = np.asarray(value)
    if v.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    for test, what in rules:
        ok = test(v)
        if not ok.all():
            raise ValueError(f"{name} must be {what}, got {float(v.flat[ok.argmin()])}")


def check_probabilities(name: str, value) -> None:
    """check_probability(strict=True) for value or each element of it: each
    must lie in the open interval (0, 1), so NaN and inf fail."""
    _check_elements(name, value, ((lambda v: (v > 0) & (v < 1), "in (0, 1)"),))


def check_positive(name: str, value) -> None:
    """ValueError naming value unless it, or each element of it, is finite and > 0."""
    _check_elements(name, value, ((lambda v: v > 0, "positive"),
                                  (np.isfinite, "finite")))


def check_nonnegative(name: str, value) -> None:
    """ValueError naming value unless it, or each element of it, is finite and >= 0."""
    _check_elements(name, value, ((lambda v: v >= 0, "nonnegative"),
                                  (np.isfinite, "finite")))


def check_finite(name: str, value) -> None:
    """ValueError naming value unless it, or each element of it, is finite."""
    _check_elements(name, value, ((np.isfinite, "finite"),))


def check_real(name: str, value) -> float:
    """value as a float; ValueError naming it unless a real number.

    NaN and inf pass; strings, booleans, complex values and arrays fail.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo mean with its standard error and trial count."""

    mean: float
    se: float
    trials: int

    @classmethod
    def from_sums(cls, total, total_dev, trials: int, unit: float = 1.0) -> "Estimate":
        """Estimate of the mean of trials samples x from total = sum(x) and
        total_dev = sum((x / unit - 1)^2), as Estimate.total_dev sums it.

        unit is a positive scale the caller knows x to be of (a target
        probability, a reference rate, a signal power).  In that unit the
        squares stay normal numbers where those of x, below about 1e-154,
        underflow and would zero the SE.  Centred on it, they cancel little
        when unit is near the mean: the SE's relative error is about
        3e-16 * (1 + d) * (s + d) / s^2, s being the standard deviation of
        x / unit and d = |mean / unit - 1|, so about 1e-15 / s within two
        standard deviations.  The SE is unit * sqrt(var / trials), var being
        the population variance of x / unit, floored at 0 where rounding
        makes it negative.
        """
        trials = check_count("trials", trials)
        check_positive("unit", unit)
        mean = float(total) / trials
        shift = mean / unit - 1.0
        var = max(float(total_dev) / trials - shift * shift, 0.0)
        return cls(mean, unit * math.sqrt(var / trials), trials)

    @staticmethod
    def total_dev(x, unit: float = 1.0):
        """sum((x / unit - 1)^2), the total_dev from_sums takes, through one
        temporary array."""
        dev = np.divide(x, unit)
        dev -= 1.0
        np.square(dev, out=dev)
        return dev.sum()

    def ci(self) -> tuple:
        """Normal 95% confidence interval mean -/+ 1.96 * se."""
        half = _Z95 * self.se
        return (self.mean - half, self.mean + half)


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
    Block generators are counter-addressed: block b starts its 256-bit
    counter at (b + 1) * 2^128, so any number of fixed-size Monte-Carlo
    blocks drawn from one stream never overlap and are independent of how
    blocks are scheduled across workers.
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
        """Generator of block block_index, built at its counter directly.

        The counter (block_index + 1) * 2^128 carries into the top word; it
        is the state Philox(key).jumped(block_index + 1) reaches, with no
        jump taken.  Counter 0 would alias generator().
        """
        counter = (check_count("block_index", block_index, 0) + 1) << 128
        return np.random.Generator(np.random.Philox(counter=counter, key=self._key()))

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
    from concurrent.futures import ThreadPoolExecutor

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
    (trials, block_size) and each block owns a counter-addressed substream
    (SeededStream.block_generator), so the reduced result is bit-identical
    for every worker count.
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

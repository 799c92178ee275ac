"""Rate selection from estimated channel statistics on a Rayleigh link.

The receiver power is exponential with unknown mean theta.  Given n
training observations, the transmitter estimates theta by its ML estimate
(the sample mean) and picks the rate that would hit a backed-off outage
target eps_n if the estimate were exact.  Two ways to choose eps_n so the
true target eps still holds:

  average reliability (ar): the outage averaged over the training
  randomness equals eps, worst case over theta.
  per-estimate confidence (pcr): with probability 1 - xi over the
  training randomness, the conditional outage stays below eps.

Both corrections are scale free (no theta) and in closed form: ar
through log1p/expm1, pcr through the inverse of the upper regularized
gamma, so neither rounds a small eps through 1 - eps or runs a solver.
The price of selection shows up in the throughput ratio: mean delivered
rate normalized by the genie rate R_eps(theta) * (1 - eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simcore import (
    Estimate,
    MonteCarloConfig,
    check_count,
    check_nonnegative,
    check_positive,
    check_probabilities,
    check_probability,
    reg_upper_gamma_inv,
    run_monte_carlo,
)
# not called here: bench/tracing.py patches ratesel.bisect and
# ratesel.reg_lower_gamma by name, and fails if either is missing
from .simcore import bisect, reg_lower_gamma  # noqa: F401

__all__ = [
    "NoFeasibleBackoffError",
    "RayleighScenario",
    "BackoffPolicy",
    "ThroughputResult",
    "outage_probability",
    "outage_capacity",
    "ml_estimate",
    "ar_epsilon",
    "ar_outage_sup",
    "pcr_epsilon",
    "throughput_ratio",
]

_THROUGHPUT_TAG = 201

_LN2 = math.log(2.0)

# trials per Monte-Carlo block; a trial costs O(1) whatever n is
_BLOCK_TRIALS = 2 ** 16


class NoFeasibleBackoffError(ValueError):
    """The largest back-off meeting the confidence constraint underflows to 0."""


@dataclass(frozen=True)
class RayleighScenario:
    """Exponential received power with mean theta (linear scale)."""

    theta: float

    def __post_init__(self):
        check_positive("theta", self.theta)


def outage_probability(theta, rate):
    """P(log2(1+P) < rate) for exponential power with mean theta."""
    check_positive("theta", theta)
    check_nonnegative("rate", rate)
    th = np.asarray(theta, dtype=float)
    r = np.asarray(rate, dtype=float)
    out = -np.expm1(-np.expm1(r * _LN2) / th)
    return float(out) if out.ndim == 0 else out


def outage_capacity(theta, eps):
    """Largest rate with outage at most eps: log2(1 - theta*ln(1-eps))."""
    check_positive("theta", theta)
    check_probabilities("eps", eps)
    th = np.asarray(theta, dtype=float)
    e = np.asarray(eps, dtype=float)
    out = np.log1p(-th * np.log1p(-e)) / _LN2
    return float(out) if out.ndim == 0 else out


def ml_estimate(samples) -> float:
    """ML estimate of theta from observed powers: the sample mean."""
    check_nonnegative("samples", samples)
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one sample")
    return float(x.mean())


def ar_epsilon(n: int, eps: float) -> float:
    """Back-off whose training-averaged outage equals eps for every theta."""
    n = check_count("n", n)
    check_probability("eps", eps, strict=True)
    return -math.expm1(-n * math.expm1(-math.log1p(-eps) / n))


def ar_outage_sup(n: int, eps_n: float) -> float:
    """Worst-case average outage when transmitting with back-off eps_n.

    Inverse companion of ar_epsilon: ar_outage_sup(n, ar_epsilon(n, eps))
    returns eps.
    """
    n = check_count("n", n)
    check_probability("eps_n", eps_n, strict=True)
    return -math.expm1(-n * math.log1p(-math.log1p(-eps_n) / n))


def pcr_epsilon(n: int, eps: float, xi: float) -> float:
    """Largest back-off keeping P(conditional outage > eps) at most xi.

    The violation probability is the upper regularized gamma
    Q(n, n*ln(1-eps)/ln(1-eps_n)), increasing in eps_n and free of theta,
    so it equals xi where n*ln(1-eps)/ln(1-eps_n) is x with Q(n, x) = xi:
    eps_n = -expm1(n*log1p(-eps)/x), capped at eps where the constraint
    is vacuous.  Raises NoFeasibleBackoffError only if that underflows.
    """
    n = check_count("n", n)
    check_probability("eps", eps, strict=True)
    check_probability("xi", xi, strict=True)
    eps_n = -math.expm1(n * math.log1p(-eps) / float(reg_upper_gamma_inv(n, xi)))
    if not eps_n > 0.0:  # 0, or NaN from a non-finite x
        raise NoFeasibleBackoffError(
            f"back-off {eps_n} meeting xi={xi} for n={n}, eps={eps} is not positive")
    return min(eps, eps_n)


@dataclass(frozen=True)
class BackoffPolicy:
    """Rate-selection rule: kind 'ar' or 'pcr' with target eps (and xi for pcr)."""

    kind: str
    eps: float
    xi: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("ar", "pcr"):
            raise ValueError(f"kind must be 'ar' or 'pcr', got {self.kind!r}")
        check_probability("eps", self.eps, strict=True)
        if self.kind == "pcr":
            check_probability("xi", self.xi, strict=True)

    def epsilon_n(self, n: int) -> float:
        if self.kind == "ar":
            return ar_epsilon(n, self.eps)
        return pcr_epsilon(n, self.eps, self.xi)


@dataclass(frozen=True)
class ThroughputResult:
    """Monte-Carlo throughput ratio and reliability audits, each an Estimate.

    ratio is the delivered rate over R_eps(theta) * (1 - eps); outage is the
    conditional outage (the ar target); violation is the fraction of trials
    whose conditional outage exceeds eps (the pcr target).
    """

    ratio: Estimate
    outage: Estimate
    violation: Estimate
    epsilon_n: float


def throughput_ratio(scenario: RayleighScenario, policy: BackoffPolicy, n: int,
                     mc: MonteCarloConfig, workers: int = 1) -> ThroughputResult:
    """Delivered-rate ratio of the estimated-theta scheme vs the genie rate.

    Per trial: draw the ML estimate and set the rate from it with the
    policy's back-off.  The estimate is the mean of n exponential training
    powers, which is exactly Gamma(n, theta/n), so it is drawn once from
    that law, the trial's only draw: a trial costs O(1) for any n.  The
    trial is credited with the rate times the probability that it fits the
    channel given the estimate, exp(theta_hat * log1p(-eps_n) / theta), the
    complement of its conditional outage, rather than with the rate or 0
    as one test power falls.  That is conditional Monte Carlo
    (Rao-Blackwell): the same mean, and never a larger variance, since the
    test power's own noise is integrated out.  Normalization is
    R_eps(theta) * (1 - eps).

    The stream is keyed by (tag, n) only, so the policies share every draw
    at one n (common random numbers): the ar and pcr rows of one sweep are
    correlated, and an unlucky seed moves them together.  Squares are
    summed about R_eps(theta) and eps, in those units, so no SE underflows
    to 0 at small eps.
    """
    n = check_count("n", n)
    theta = scenario.theta
    eps = policy.eps
    eps_n = policy.epsilon_n(n)
    log_backoff = math.log1p(-eps_n)  # negative
    genie = outage_capacity(theta, eps)

    def block_fn(rng: np.random.Generator, start: int, count: int):
        theta_hat = rng.gamma(n, theta / n, size=count)
        rate = np.log1p(-theta_hat * log_backoff) / _LN2
        # log P(rate fits | theta_hat): the threshold power 2^rate - 1 is
        # exceeded by an exponential power of mean theta
        log_fit = theta_hat / theta * log_backoff
        delivered = rate * np.exp(log_fit)
        cond_outage = -np.expm1(log_fit)
        return (
            delivered.sum(),
            Estimate.total_dev(delivered, genie),
            cond_outage.sum(),
            Estimate.total_dev(cond_outage, eps),
            (cond_outage > eps).sum(),
        )

    sums = run_monte_carlo(mc.trials, _BLOCK_TRIALS, mc.stream(_THROUGHPUT_TAG, n),
                           block_fn, workers=workers)
    s1, s2, o1, o2, viol = sums
    k = mc.trials
    denom = genie * (1.0 - eps)
    return ThroughputResult(
        # x / denom in units of genie / denom is x / genie: s2 serves as is
        ratio=Estimate.from_sums(s1 / denom, s2, k, unit=genie / denom),
        outage=Estimate.from_sums(o1, o2, k, unit=eps),
        # an indicator v has (v - 1)^2 = 1 - v
        violation=Estimate.from_sums(viol, k - viol, k),
        epsilon_n=eps_n,
    )

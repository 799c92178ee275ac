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

Both corrections are scale free (no theta), so they can be computed
offline.  The price of selection shows up in the throughput ratio: mean
delivered rate normalized by the genie rate R_eps(theta) * (1 - eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simcore import (
    MonteCarloConfig,
    bisect,
    check_count,
    check_positive,
    check_probability,
    reg_lower_gamma,
    run_monte_carlo,
)

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

# lower bracket for the pcr bisection; below this the condition is
# satisfied for any xi of practical interest
_PCR_FLOOR = 1e-15

# trials per Monte-Carlo block; a trial costs O(1) whatever n is
_BLOCK_TRIALS = 2 ** 16


class NoFeasibleBackoffError(ValueError):
    """No back-off in (0, eps] meets the confidence constraint."""


@dataclass(frozen=True)
class RayleighScenario:
    """Exponential received power with mean theta (linear scale)."""

    theta: float

    def __post_init__(self):
        check_positive("theta", self.theta)


def outage_probability(theta, rate):
    """P(log2(1+P) < rate) for exponential power with mean theta."""
    th = np.asarray(theta, dtype=float)
    r = np.asarray(rate, dtype=float)
    if np.any(th <= 0):
        raise ValueError("theta must be positive")
    if np.any(r < 0):
        raise ValueError("rate must be nonnegative")
    out = -np.expm1(-(np.exp2(r) - 1.0) / th)
    return float(out) if out.ndim == 0 else out


def outage_capacity(theta, eps):
    """Largest rate with outage at most eps: log2(1 - theta*ln(1-eps))."""
    th = np.asarray(theta, dtype=float)
    e = np.asarray(eps, dtype=float)
    if np.any(th <= 0):
        raise ValueError("theta must be positive")
    if np.any((e <= 0.0) | (e >= 1.0)):
        raise ValueError("eps must be in (0, 1)")
    out = np.log2(1.0 - th * np.log1p(-e))
    return float(out) if out.ndim == 0 else out


def ml_estimate(samples) -> float:
    """ML estimate of theta from observed powers: the sample mean."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one sample")
    if np.any(x < 0):
        raise ValueError("powers must be nonnegative")
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

    The violation probability 1 - P(n, n*ln(1-eps)/ln(1-eps_n)) is
    increasing in eps_n and free of theta; solved by bisection on
    (1e-15, eps].
    """
    n = check_count("n", n)
    check_probability("eps", eps, strict=True)
    check_probability("xi", xi, strict=True)

    log_target = math.log1p(-eps)

    def violation(eps_n: float) -> float:
        return 1.0 - float(reg_lower_gamma(n, n * log_target / math.log1p(-eps_n)))

    if violation(eps) <= xi:
        return eps  # constraint vacuous, no back-off needed
    if violation(_PCR_FLOOR) > xi:
        raise NoFeasibleBackoffError(
            f"no back-off above {_PCR_FLOOR} meets xi={xi} for n={n}, eps={eps}")
    # the two checks above give violation - xi a sign change on the bracket
    return bisect(lambda x: violation(x) - xi, _PCR_FLOOR, eps, tol=0.0)


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
    """Monte-Carlo throughput ratio with a 95% CI and reliability audits."""

    ratio: float
    ci_low: float
    ci_high: float
    mean_outage: float
    mean_outage_se: float
    violation_fraction: float
    epsilon_n: float
    trials: int


def throughput_ratio(scenario: RayleighScenario, policy: BackoffPolicy, n: int,
                     mc: MonteCarloConfig, workers: int = 1) -> ThroughputResult:
    """Delivered-rate ratio of the estimated-theta scheme vs the genie rate.

    Per trial: draw the ML estimate, set the rate from it with the
    policy's back-off, draw one test power, and credit the rate when it
    fits the realized channel.  The estimate is the mean of n exponential
    training powers, which is exactly Gamma(n, theta/n), so it is drawn
    once from that law: a trial costs O(1) for any n.  Normalization is
    R_eps(theta) * (1 - eps).  Also reports the mean conditional outage
    (the ar target) and the fraction of trials whose conditional outage
    exceeds eps (the pcr target).
    """
    n = check_count("n", n)
    theta = scenario.theta
    eps = policy.eps
    eps_n = policy.epsilon_n(n)
    log_backoff = math.log1p(-eps_n)  # negative

    def block_fn(rng: np.random.Generator, start: int, count: int):
        theta_hat = rng.gamma(n, theta / n, size=count)
        y = rng.exponential(scale=theta, size=count)
        rate = np.log2(1.0 - theta_hat * log_backoff)
        # rate fits iff the threshold power 2^rate - 1 is observed
        delivered = np.where(-theta_hat * log_backoff <= y, rate, 0.0)
        cond_outage = -np.expm1(theta_hat / theta * log_backoff)
        return (
            delivered.sum(),
            (delivered ** 2).sum(),
            cond_outage.sum(),
            (cond_outage ** 2).sum(),
            (cond_outage > eps).sum(),
        )

    sums = run_monte_carlo(mc.trials, _BLOCK_TRIALS, mc.stream(_THROUGHPUT_TAG, n),
                           block_fn, workers=workers)
    s1, s2, o1, o2, viol = (float(v) for v in sums)
    k = mc.trials
    denom = outage_capacity(theta, eps) * (1.0 - eps)
    mean_del = s1 / k
    var_del = max(s2 / k - mean_del ** 2, 0.0)
    se_del = math.sqrt(var_del / k)
    mean_out = o1 / k
    var_out = max(o2 / k - mean_out ** 2, 0.0)
    return ThroughputResult(
        ratio=mean_del / denom,
        ci_low=(mean_del - 1.96 * se_del) / denom,
        ci_high=(mean_del + 1.96 * se_del) / denom,
        mean_outage=mean_out,
        mean_outage_se=math.sqrt(var_out / k),
        violation_fraction=viol / k,
        epsilon_n=eps_n,
        trials=k,
    )

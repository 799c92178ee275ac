"""Rate selection from estimated channel statistics with outage back-off."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammainc, gammaincc

from urllckit import ratesel
from urllckit.ratesel import (
    BackoffPolicy,
    NoFeasibleBackoffError,
    RayleighScenario,
    ar_epsilon,
    ar_outage_sup,
    ml_estimate,
    outage_capacity,
    outage_probability,
    pcr_epsilon,
    throughput_ratio,
)
from urllckit.simcore import Estimate, MonteCarloConfig

# reference values computed with mpmath at 40 decimal digits
_REFERENCE = {
    "outage": (10.0, 1.0, 0.095162581964040427),
    "capacity": (10.0, 1e-3, 0.014362439778969675),
    "ar": [
        (1, 0.1, 0.10516068318563023),
        (4, 0.05, 0.050313719444326866),
        (10, 1e-3, 0.00100005000166212),
        (10000, 1e-9, 1.0000000000000501e-9),
    ],
}


def test_outage_probability_reference():
    theta, rate, expected = _REFERENCE["outage"]
    assert outage_probability(theta, rate) == pytest.approx(expected, rel=1e-12)


def test_outage_probability_vectorized_and_validated():
    out = outage_probability(10.0, np.array([0.0, 1.0]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.095162581964040427, rel=1e-12)
    with pytest.raises(ValueError):
        outage_probability(0.0, 1.0)
    with pytest.raises(ValueError):
        outage_probability(1.0, -1.0)


def test_outage_capacity_reference_and_roundtrip():
    theta, eps, expected = _REFERENCE["capacity"]
    rate = outage_capacity(theta, eps)
    assert rate == pytest.approx(expected, rel=1e-12)
    for th in (0.5, 1.0, 10.0, 100.0):
        for e in (1e-5, 1e-3, 0.1, 0.5):
            assert outage_probability(th, outage_capacity(th, e)) == \
                pytest.approx(e, rel=1e-10, abs=0)
    with pytest.raises(ValueError):
        outage_capacity(10.0, 1.0)


def test_outage_capacity_roundtrip_below_double_spacing():
    # log2(1 + x) rounds 1 + 1e-16 to 1, a rate of 0; log1p keeps it
    assert outage_capacity(10.0, 1e-17) == pytest.approx(1e-16 / math.log(2.0),
                                                         rel=1e-12, abs=0)
    for th in (0.5, 10.0, 1e3):
        for e in (1e-17, 1e-12):
            assert outage_probability(th, outage_capacity(th, e)) == \
                pytest.approx(e, rel=1e-12, abs=0)


def test_ml_estimate_is_sample_mean():
    assert ml_estimate([1.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        ml_estimate([])
    with pytest.raises(ValueError):
        ml_estimate([-1.0])


def test_ml_estimate_averages_in_double():
    # single-precision powers are averaged as doubles, not in their own
    # precision, whose float32 sum gives a different mean
    x = (np.arange(1, 100001) * 0.1).astype(np.float32)
    assert float(x.mean()) != float(x.astype(float).mean())
    assert ml_estimate(x) == float(x.astype(float).mean())


@pytest.mark.parametrize("n,eps,expected", _REFERENCE["ar"])
def test_ar_epsilon_reference(n, eps, expected):
    # abs=0: approx's default absolute tolerance of 1e-12 would swamp
    # the relative check at eps = 1e-9
    assert ar_epsilon(n, eps) == pytest.approx(expected, rel=1e-12, abs=0)


def test_ar_epsilon_exceeds_target_and_decreases():
    eps = 1e-3
    vals = [ar_epsilon(n, eps) for n in (1, 2, 5, 10, 100, 1000)]
    assert all(v > eps for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        ar_epsilon(0, 0.1)
    with pytest.raises(ValueError):
        ar_epsilon(3, 1.5)


def test_ar_outage_sup_inverts_ar_epsilon():
    for n in (1, 3, 7, 50, 10000):
        for eps in (1e-9, 1e-4, 1e-2, 0.2):
            assert ar_outage_sup(n, ar_epsilon(n, eps)) == \
                pytest.approx(eps, rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        ar_outage_sup(0, 0.1)


def test_pcr_epsilon_backs_off_below_target():
    for n in (1, 5, 20, 100):
        v = pcr_epsilon(n, 1e-3, 1e-3)
        assert 0.0 < v < 1e-3
        # tighter than the averaged constraint in the other direction
        assert v < ar_epsilon(n, 1e-3)


def test_pcr_epsilon_monotone_in_confidence():
    vals = [pcr_epsilon(10, 1e-3, xi) for xi in (1e-4, 1e-3, 1e-2, 0.1)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_pcr_epsilon_vacuous_constraint():
    # a loose confidence level needs no back-off at all
    assert pcr_epsilon(10, 0.01, 0.9) == 0.01


def test_pcr_epsilon_solves_violation_equation():
    for n in (2, 7, 30):
        eps, xi = 1e-3, 1e-3
        en = pcr_epsilon(n, eps, xi)
        violation = 1.0 - gammainc(n, n * math.log1p(-eps) / math.log1p(-en))
        assert violation == pytest.approx(xi, abs=1e-9)


def _pcr_violation(n, eps, eps_n):
    """P(conditional outage > eps) at back-off eps_n, as Q(n, x) in mpmath."""
    with mpmath.workdps(40):
        x = n * mpmath.log1p(-mpmath.mpf(eps)) / mpmath.log1p(-mpmath.mpf(eps_n))
        return mpmath.gammainc(n, x, mpmath.inf, regularized=True)


# the benchmark's grid, and targets below the double spacing of 1
_PCR_EPS = tuple(10.0 ** -k for k in range(1, 10)) + (1e-12, 1e-14, 1e-16, 1e-17)


@pytest.mark.parametrize("n", [1, 10, 100, 1000, 10000])
def test_pcr_epsilon_meets_xi_and_is_maximal_against_mpmath(n):
    for eps in _PCR_EPS:
        for xi in (1e-1, 1e-3, 1e-6):
            en = pcr_epsilon(n, eps, xi)
            violation = _pcr_violation(n, eps, en)
            if en == eps:
                assert violation <= xi, (eps, xi)
                continue
            assert abs(violation / xi - 1) <= 1e-12, (eps, xi)
            assert _pcr_violation(n, eps, en * (1 + 1e-9)) > xi, (eps, xi)


@pytest.mark.parametrize("n,eps,xi,expected", [
    # mpmath at 40 digits; a bisection floored at 1e-15 found none of these
    (1, 1e-14, 1e-6, 7.2382413650542307e-16),
    (1, 1e-16, 1e-3, 1.4476482730108395e-17),
    (10, 1e-17, 1e-6, 3.0571372360500798e-18),
])
def test_pcr_epsilon_backs_off_below_1e_15(n, eps, xi, expected):
    assert pcr_epsilon(n, eps, xi) == pytest.approx(expected, rel=1e-15, abs=0)


def test_pcr_epsilon_raises_only_on_underflow():
    # the smallest subnormal eps has a back-off below every double
    with pytest.raises(NoFeasibleBackoffError, match="not positive"):
        pcr_epsilon(1, 5e-324, 1e-6)
    assert pcr_epsilon(1, 1e-300, 1e-300) > 0.0


def test_pcr_epsilon_validation():
    with pytest.raises(ValueError):
        pcr_epsilon(0, 1e-3, 1e-3)
    with pytest.raises(ValueError):
        pcr_epsilon(5, 0.0, 1e-3)
    with pytest.raises(ValueError):
        pcr_epsilon(5, 1e-3, 0.0)


def test_backoff_policy_dispatch_and_validation():
    ar = BackoffPolicy("ar", 1e-3)
    assert ar.epsilon_n(5) == ar_epsilon(5, 1e-3)
    pcr = BackoffPolicy("pcr", 1e-3, 1e-3)
    assert pcr.epsilon_n(5) == pcr_epsilon(5, 1e-3, 1e-3)
    with pytest.raises(ValueError):
        BackoffPolicy("fixed", 1e-3)
    with pytest.raises(ValueError):
        BackoffPolicy("pcr", 1e-3)
    with pytest.raises(ValueError):
        BackoffPolicy("ar", 0.0)


def test_rayleigh_scenario_validation():
    with pytest.raises(ValueError):
        RayleighScenario(0.0)


def test_throughput_ratio_result_fields():
    res = throughput_ratio(RayleighScenario(10.0), BackoffPolicy("ar", 0.01),
                           4, MonteCarloConfig(20_000, 5))
    lo, hi = res.ratio.ci()
    assert lo <= res.ratio.mean <= hi
    assert res.epsilon_n == ar_epsilon(4, 0.01)
    assert res.ratio.trials == res.outage.trials == res.violation.trials == 20_000
    with pytest.raises(ValueError):
        throughput_ratio(RayleighScenario(10.0), BackoffPolicy("ar", 0.01),
                         0, MonteCarloConfig(10, 5))


def test_throughput_ratio_ar_outage_audit():
    # the averaged back-off makes the mean conditional outage equal the target
    res = throughput_ratio(RayleighScenario(10.0), BackoffPolicy("ar", 0.01),
                           5, MonteCarloConfig(200_000, 7))
    assert abs(res.outage.mean - 0.01) <= 4.0 * res.outage.se


def test_throughput_ratio_pcr_violation_audit():
    xi = 0.05
    res = throughput_ratio(RayleighScenario(10.0),
                           BackoffPolicy("pcr", 0.01, xi),
                           5, MonteCarloConfig(200_000, 7))
    sigma = math.sqrt(xi * (1.0 - xi) / res.violation.trials)
    assert abs(res.violation.mean - xi) <= 4.0 * sigma


def test_throughput_ratio_pcr_pays_more_than_ar():
    mc = MonteCarloConfig(100_000, 7)
    sc = RayleighScenario(10.0)
    ar = throughput_ratio(sc, BackoffPolicy("ar", 1e-3), 5, mc)
    pcr = throughput_ratio(sc, BackoffPolicy("pcr", 1e-3, 1e-3), 5, mc)
    assert pcr.ratio.mean < ar.ratio.mean


def test_throughput_ratio_deterministic_and_worker_invariant():
    sc = RayleighScenario(2.0)
    pol = BackoffPolicy("ar", 0.05)
    mc = MonteCarloConfig(2_000_000, 11)
    a = throughput_ratio(sc, pol, 3, mc, workers=1)
    b = throughput_ratio(sc, pol, 3, mc, workers=4)
    assert a == b


@pytest.mark.parametrize("kind", ["ar", "pcr"])
def test_throughput_ratio_se_survives_squares_underflow(kind):
    # the stream is keyed by n only, and below eps ~ 1e-100 every per-trial
    # value is linear in eps, so the relative SEs do not move with eps; the
    # squares of rates and outages near 1e-160 underflow, and summed as
    # they are, the CI had zero width there
    def relative_se(eps):
        res = throughput_ratio(RayleighScenario(10.0),
                               BackoffPolicy(kind, eps, 1e-3 if kind == "pcr" else None),
                               100, MonteCarloConfig(100_000, 1))
        assert res.ratio.trials == 100_000
        return res.ratio.se / res.ratio.mean, res.outage.se / res.outage.mean

    ref = relative_se(1e-100)
    assert min(ref) > 1e-4
    for eps in (1e-160, 1e-200, 1e-300):
        assert relative_se(eps) == pytest.approx(ref, rel=1e-9)


def _ratio_exact(theta, eps, eps_n, n):
    """E[log2(1 - th*L) exp(th*L/theta)] / (R_eps(theta) (1 - eps)),
    th ~ Gamma(n, theta/n), L = log1p(-eps_n): the expected delivered rate
    given the estimate th, normalized by the genie rate."""
    log_backoff = math.log1p(-eps_n)
    law = stats.gamma(n, scale=theta / n)
    lo, hi = law.ppf(1e-14), law.isf(1e-14)
    mean, _ = integrate.quad(
        lambda th: math.log2(1.0 - th * log_backoff)
        * math.exp(th * log_backoff / theta) * law.pdf(th),
        lo, hi, points=[theta], limit=200, epsabs=0.0, epsrel=1e-10)
    return mean / (outage_capacity(theta, eps) * (1.0 - eps))


@pytest.mark.parametrize("n", [1, 10, 1000, 100_000])
@pytest.mark.parametrize("kind", ["ar", "pcr"])
def test_throughput_ratio_matches_closed_forms(kind, n):
    # the three audits have exact expectations over th ~ Gamma(n, theta/n)
    theta, eps, xi, trials = 10.0, 1e-3, 1e-3, 1_000_000
    pol = BackoffPolicy(kind, eps, xi if kind == "pcr" else None)
    res = throughput_ratio(RayleighScenario(theta), pol, n,
                           MonteCarloConfig(trials, 43))
    eps_n = res.epsilon_n

    mean_outage = ar_outage_sup(n, eps_n)
    assert abs(res.outage.mean - mean_outage) <= 4.0 * res.outage.se

    viol = gammaincc(n, n * math.log1p(-eps) / math.log1p(-eps_n))
    sigma = math.sqrt(viol * (1.0 - viol) / trials)
    assert abs(res.violation.mean - viol) <= 4.0 * sigma

    ratio = _ratio_exact(theta, eps, eps_n, n)
    assert abs(res.ratio.mean - ratio) <= 4.0 * res.ratio.se


# the seeds of the tests below: 0-49, and 1821, at which the ratio credited
# by a test power strayed 4.8 sigma from the closed form at n = 10000
_SEEDS = tuple(range(50)) + (1821,)


def _policy(kind, eps=1e-3, xi=1e-3):
    return BackoffPolicy(kind, eps, xi if kind == "pcr" else None)


@pytest.mark.parametrize("n", [1, 10, 100, 1000, 10_000])
@pytest.mark.parametrize("kind", ["ar", "pcr"])
def test_throughput_ratio_within_4_sigma_on_every_seed(kind, n):
    # credited with its fit probability, a trial no longer hangs on one test
    # power, so at n = 10000 the CI does not rest on the few trials in outage
    theta, trials = 10.0, 10_000
    pol = _policy(kind)
    ratio = _ratio_exact(theta, pol.eps, pol.epsilon_n(n), n)
    for seed in _SEEDS:
        res = throughput_ratio(RayleighScenario(theta), pol, n,
                               MonteCarloConfig(trials, seed))
        assert abs(res.ratio.mean - ratio) <= 4.0 * res.ratio.se, seed


def _indicator_ratio(theta, eps, eps_n, n, mc):
    """The ratio credited with the rate where one test power fits it and 0
    elsewhere, from the estimates throughput_ratio draws, each followed by
    its own test power from the same generator."""
    rng = mc.stream(ratesel._THROUGHPUT_TAG, n).block_generator(0)
    theta_hat = rng.gamma(n, theta / n, size=mc.trials)
    y = rng.exponential(scale=theta, size=mc.trials)
    log_backoff = math.log1p(-eps_n)
    rate = np.log1p(-theta_hat * log_backoff) / math.log(2.0)
    delivered = np.where(-theta_hat * log_backoff <= y, rate, 0.0)
    genie = outage_capacity(theta, eps)
    return Estimate.from_sums(delivered.sum() / (genie * (1.0 - eps)),
                              Estimate.total_dev(delivered, genie), mc.trials,
                              unit=1.0 / (1.0 - eps))


def _indicator_se_exact(theta, eps, eps_n, n, trials):
    """The indicator ratio's exact SE: a trial's credit is rate(th) with
    probability exp(th*L/theta), so its second moment is E[rate^2 fit]."""
    log_backoff = math.log1p(-eps_n)
    law = stats.gamma(n, scale=theta / n)
    lo, hi = law.ppf(1e-14), law.isf(1e-14)
    second, _ = integrate.quad(
        lambda th: math.log2(1.0 - th * log_backoff) ** 2
        * math.exp(th * log_backoff / theta) * law.pdf(th),
        lo, hi, points=[theta], limit=200, epsabs=0.0, epsrel=1e-10)
    denom = outage_capacity(theta, eps) * (1.0 - eps)
    mean = _ratio_exact(theta, eps, eps_n, n)
    return math.sqrt((second / denom ** 2 - mean ** 2) / trials)


@pytest.mark.parametrize("n", [100, 1000, 10_000])
@pytest.mark.parametrize("kind", ["ar", "pcr"])
def test_conditional_credit_se_below_the_indicator_se(kind, n):
    # conditional Monte Carlo is never noisier than the test power it
    # integrates out; at n = 10000 that noise is most of the indicator's,
    # and the conditional SE is at most half its exact SE
    theta, trials = 10.0, 10_000
    pol = _policy(kind)
    eps_n = pol.epsilon_n(n)
    half_exact = 0.5 * _indicator_se_exact(theta, pol.eps, eps_n, n, trials)
    for seed in _SEEDS:
        mc = MonteCarloConfig(trials, seed)
        res = throughput_ratio(RayleighScenario(theta), pol, n, mc)
        assert res.ratio.se <= _indicator_ratio(theta, pol.eps, eps_n, n, mc).se, seed
        if n == 10_000:
            assert res.ratio.se <= half_exact, seed


@pytest.mark.parametrize("n", [1, 100, 10_000])
@pytest.mark.parametrize("kind", ["ar", "pcr"])
def test_throughput_ratio_takes_one_draw_per_trial(kind, n):
    # every audit, the ratio's credit included, is a function of the
    # block's gamma draws alone, recomputed here bit for bit
    theta, eps = 10.0, 1e-3
    mc = MonteCarloConfig(10_000, 3)
    res = throughput_ratio(RayleighScenario(theta), _policy(kind), n, mc)
    rng = mc.stream(ratesel._THROUGHPUT_TAG, n).block_generator(0)
    theta_hat = rng.gamma(n, theta / n, mc.trials)
    log_backoff = math.log1p(-res.epsilon_n)
    log_fit = theta_hat / theta * log_backoff
    cond_outage = -np.expm1(log_fit)
    assert res.outage == Estimate.from_sums(cond_outage.sum(),
                                            Estimate.total_dev(cond_outage, eps),
                                            mc.trials, unit=eps)
    viol = int((cond_outage > eps).sum())
    assert res.violation == Estimate.from_sums(viol, mc.trials - viol, mc.trials)
    genie = outage_capacity(theta, eps)
    denom = genie * (1.0 - eps)
    delivered = np.log1p(-theta_hat * log_backoff) / math.log(2.0) * np.exp(log_fit)
    assert res.ratio == Estimate.from_sums(delivered.sum() / denom,
                                           Estimate.total_dev(delivered, genie),
                                           mc.trials, unit=genie / denom)

"""Access-scheme error budgets and the retry latency staircase."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urllckit.access import (
    SCHEMES,
    AccessErrorProfile,
    RetransmissionModel,
    scheme_error,
    scheme_steps,
)


def _exact_union(eps) -> Fraction:
    miss = Fraction(1)
    for e in eps:
        miss *= 1 - Fraction(e)
    return 1 - miss


def test_scheme_step_chains():
    assert scheme_steps("static") == ("sync", "data", "ack")
    assert scheme_steps("grant_free") == ("sync", "data", "ack")
    assert scheme_steps("four_step") == ("sync", "request", "grant", "data", "ack")
    assert scheme_steps("three_step") == ("sync", "grant", "data", "ack")
    assert set(SCHEMES) == {"static", "four_step", "three_step", "grant_free"}
    with pytest.raises(ValueError):
        scheme_steps("five_step")


def test_scheme_error_product_form():
    profile = AccessErrorProfile(1e-5, 1e-5, 1e-5, 1e-5, 1e-5)
    assert scheme_error("four_step", profile) == pytest.approx(
        float(_exact_union([1e-5] * 5)), rel=1e-12, abs=0)
    assert scheme_error("static", profile) == pytest.approx(
        float(_exact_union([1e-5] * 3)), rel=1e-12, abs=0)


# per-step errors from 1e-6 down to 1e-18, where 1 - prod(1 - eps) loses
# every digit
_TINY = st.floats(min_value=1e-18, max_value=1e-6)


@given(scheme=st.sampled_from(SCHEMES), eps=st.lists(_TINY, min_size=5, max_size=5))
def test_scheme_error_matches_exact_fractions(scheme, eps):
    profile = AccessErrorProfile(*eps)
    steps = profile.as_dict()
    exact = _exact_union(steps[s] for s in scheme_steps(scheme))
    assert scheme_error(scheme, profile) == pytest.approx(float(exact), rel=1e-12, abs=0)


def test_scheme_error_ordering_by_step_count():
    profile = AccessErrorProfile(1e-3, 2e-3, 3e-3, 4e-3, 5e-3)
    four = scheme_error("four_step", profile)
    three = scheme_error("three_step", profile)
    free = scheme_error("grant_free", profile)
    assert four > three > free


def test_scheme_error_edge_cases():
    assert scheme_error("four_step", AccessErrorProfile()) == 0.0
    lost = AccessErrorProfile(eps_data=1.0)
    assert scheme_error("grant_free", lost) == 1.0
    # request errors cannot touch schemes without a request step
    assert scheme_error("three_step", AccessErrorProfile(eps_request=0.7)) == 0.0


def test_profile_validation():
    with pytest.raises(ValueError):
        AccessErrorProfile(eps_sync=1.5)
    with pytest.raises(ValueError):
        AccessErrorProfile(eps_ack=-0.1)


def test_retransmission_model_validation():
    with pytest.raises(ValueError):
        RetransmissionModel(eps_attempt=1.5, attempt_latency_s=1e-3, max_attempts=5)
    with pytest.raises(ValueError):
        RetransmissionModel(eps_attempt=0.1, attempt_latency_s=0.0, max_attempts=5)
    with pytest.raises(ValueError):
        RetransmissionModel(eps_attempt=0.1, attempt_latency_s=1e-3, max_attempts=0)
    # a fractional cap would build a 3-step staircase with residual 0.1**2.5
    for bad in (2.5, 3.0, math.inf):
        with pytest.raises(ValueError, match="max_attempts"):
            RetransmissionModel(eps_attempt=0.1, attempt_latency_s=1e-3, max_attempts=bad)
    model = RetransmissionModel(eps_attempt=0.1, attempt_latency_s=1e-3,
                                max_attempts=np.int64(3))
    assert type(model.max_attempts) is int
    assert model.attempt_times.shape == (3,)
    assert model.residual_error == 0.1 ** 3
    # a positional per-attempt value (a success probability in older code)
    # is refused rather than read as an error
    with pytest.raises(TypeError):
        RetransmissionModel(0.9, 1e-3, 5)


def test_latency_cdf_staircase():
    model = RetransmissionModel(eps_attempt=0.1, attempt_latency_s=1e-3, max_attempts=5)
    assert np.allclose(model.attempt_times, 1e-3 * np.arange(1, 6))
    k = np.arange(1, 6)
    assert np.allclose(model.attempt_reliabilities, 1.0 - 0.1 ** k, rtol=1e-12)
    assert model.residual_error == pytest.approx(1e-5, rel=1e-10, abs=0)
    # far below the spacing of doubles near 1 the residual keeps its digits
    tiny = RetransmissionModel(eps_attempt=1e-17, attempt_latency_s=1e-3, max_attempts=3)
    assert tiny.residual_error == pytest.approx(1e-51, rel=1e-12, abs=0)


def test_latency_cdf_reliability_at():
    model = RetransmissionModel(eps_attempt=0.1, attempt_latency_s=1e-3, max_attempts=5)
    assert model.reliability_at(0.0) == 0.0
    assert model.reliability_at(0.5e-3) == 0.0
    # a deadline exactly on an attempt boundary includes that attempt
    assert model.reliability_at(1e-3) == pytest.approx(0.9, rel=1e-12)
    assert model.reliability_at(3e-3) == pytest.approx(1.0 - 1e-3, rel=1e-12)
    # beyond the cap the curve saturates at 1 - residual
    assert model.reliability_at(1.0) == pytest.approx(1.0 - 1e-5, rel=1e-12)
    assert model.reliability_at(1.0) + model.residual_error == pytest.approx(1.0)


def test_latency_cdf_reliability_at_vectorized():
    model = RetransmissionModel(eps_attempt=0.5, attempt_latency_s=2e-3, max_attempts=3)
    out = model.reliability_at(np.array([1e-3, 2e-3, 4e-3, 1.0]))
    assert out == pytest.approx([0.0, 0.5, 0.75, 0.875], rel=1e-12)

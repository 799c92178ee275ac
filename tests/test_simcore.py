"""Numeric primitives and the seeded Monte-Carlo plumbing."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urllckit.simcore import (
    MonteCarloConfig,
    NoBracketError,
    SeededStream,
    bisect,
    check_positive,
    check_probability,
    collect_monte_carlo,
    log_q_function,
    q_function,
    reg_lower_gamma,
    run_monte_carlo,
    union_error,
)

# reference values computed with mpmath at 40 decimal digits
_Q_REFERENCE = [
    (-8.0, 0.99999999999999938),
    (-3.0, 0.99865010196836991),
    (-1.0, 0.84134474606854295),
    (0.0, 0.5),
    (0.5, 0.3085375387259869),
    (1.0, 0.15865525393145705),
    (2.0, 0.022750131948179207),
    (3.0, 0.0013498980316300945),
    (5.0, 2.8665157187919391e-7),
    (8.0, 6.2209605742717841e-16),
    (12.0, 1.776482112077679e-33),
    (15.0, 3.6709661993127509e-51),
    (20.0, 2.7536241186062337e-89),
    (25.0, 3.0566967063825609e-138),
    (30.0, 4.9067139271481871e-198),
    (35.0, 1.1249107064724062e-268),
    (37.5, 4.6053530095819548e-308),
]

_LOG_Q_REFERENCE = [
    (-2.0, -0.023012909328963488),
    (0.0, -0.69314718055994531),
    (1.0, -1.8410216450092635),
    (5.0, -15.064998393988726),
    (12.0, -75.410673001568796),
    (30.0, -454.3212439563432),
    (100.0, -5005.5242086942051),
]

_GAMMA_REFERENCE = [
    (1.0, 0.5, 0.39346934028736658),
    (2.0, 2.0, 0.59399415029016192),
    (5.0, 4.5, 0.46789642362528452),
    (50.0, 55.0, 0.76779521949914367),
    (10.0, 3.0, 0.0011024881301154797),
]


@pytest.mark.parametrize("x,expected", _Q_REFERENCE)
def test_q_function_reference(x, expected):
    assert q_function(x) == pytest.approx(expected, rel=1e-12, abs=0)


def test_q_function_survives_ndtr_underflow():
    # scipy's ndtr returns exactly 0.0 from x = 38 on; the log-domain tail
    # must keep the value positive (subnormal is fine)
    v = q_function(38.0)
    assert v > 0.0
    assert v < 1e-310


def test_q_function_symmetry():
    xs = np.linspace(-6.0, 6.0, 25)
    total = q_function(xs) + q_function(-xs)
    assert total == pytest.approx(np.ones_like(xs), rel=1e-12)


def test_q_function_scalar_and_vector_forms():
    assert isinstance(q_function(1.0), float)
    out = q_function(np.array([0.0, 1.0]))
    assert isinstance(out, np.ndarray)
    assert out[0] == q_function(0.0)
    assert out[1] == q_function(1.0)


@pytest.mark.parametrize("x,expected", _LOG_Q_REFERENCE)
def test_log_q_function_reference(x, expected):
    assert log_q_function(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n,x,expected", _GAMMA_REFERENCE)
def test_reg_lower_gamma_reference(n, x, expected):
    assert reg_lower_gamma(n, x) == pytest.approx(expected, rel=1e-12)


@given(st.lists(st.floats(min_value=1e-18, max_value=1e-6), min_size=1, max_size=8))
def test_union_error_matches_exact_fractions(eps):
    miss = Fraction(1)
    for e in eps:
        miss *= 1 - Fraction(e)
    assert union_error(*eps) == pytest.approx(float(1 - miss), rel=1e-12, abs=0)


def test_union_error_edges_and_arrays():
    assert union_error() == 0.0
    assert union_error(0.0, 0.0) == 0.0
    assert union_error(1e-17, 1.0, 0.3) == 1.0
    assert union_error(0.3, 1.0) == 1.0
    # three steps at 1e-12: the complement of a product gives 2.99993e-12
    assert union_error(1e-12, 1e-12, 1e-12) == pytest.approx(3e-12, rel=1e-11, abs=0)
    a = np.array([1e-17, 0.5, 1.0])
    assert np.array_equal(union_error(a, 0.0), a)
    assert union_error(a, a) == pytest.approx([2e-17, 0.75, 1.0], rel=1e-15, abs=0)


def _bisect_as(form, f, lo, hi, **kw):
    """bisect on one bracket, given as scalars or as a 3-element array.

    The array form must return three equal elements; either form returns
    its result as a float.
    """
    if form == "scalar":
        out = bisect(f, lo, hi, **kw)
        assert type(out) is float
        return out
    out = bisect(f, np.full(3, lo), np.full(3, hi),
                 **{k: np.full(3, v) for k, v in kw.items()})
    assert out.shape == (3,) and np.all(out == out[0])
    return float(out[0])


_FORMS = ("scalar", "array")


def test_bisect_sqrt2():
    for form in _FORMS:
        root = _bisect_as(form, lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-12)
        assert abs(root - math.sqrt(2.0)) < 1e-11


def test_bisect_returns_the_end_meeting_the_constraint():
    # f <= 0 holds at the result whichever way f runs through its root
    for form in _FORMS:
        up = _bisect_as(form, lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-9)
        down = _bisect_as(form, lambda x: 2.0 - x * x, 1.0, 2.0, tol=1e-9)
        assert up * up - 2.0 < 0.0 < down * down - 2.0
        assert up < math.sqrt(2.0) < down
        assert down - up <= 1e-9


def test_bisect_exact_zero_endpoints():
    for form in _FORMS:
        assert _bisect_as(form, lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert _bisect_as(form, lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_bisect_exact_zero_midpoint():
    for form in _FORMS:
        assert _bisect_as(form, lambda x: x, -2.0, 2.0) == 0.0


def test_bisect_no_bracket():
    for form in _FORMS:
        with pytest.raises(NoBracketError):
            _bisect_as(form, lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            _bisect_as(form, lambda x: x, 2.0, 1.0)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
def test_bisect_array_equals_the_scalar_loop_per_element(sign):
    # roots sqrt(c) on brackets of different widths and tolerances: one
    # tolerance wider than the bracket, one met exactly after two halvings,
    # and one at 0 (bisect to adjacent floats)
    c = np.array([2.0, 3.0, 5.0, 7.0, 0.5, 10.0, 0.3])
    lo = np.array([1.0, 1.5, 0.0, 2.5, 0.1, 3.0, 0.0])
    hi = np.array([2.0, 2.0, 3.0, 2.75, 1.0, 4.0, 1.0])
    tol = np.array([1e-12, 1e-3, 0.0, 1.0, 1e-6, 1e-9, 0.25])
    got = bisect(lambda x: sign * (x * x - c), lo, hi, tol=tol)
    for i in range(c.size):
        want = bisect(lambda x: sign * (x * x - c[i]), lo[i], hi[i], tol=tol[i])
        assert got[i] == want, i


def test_bisect_array_exact_zeros_per_element():
    # zero at lo, zero at hi, zero at the first midpoint, and a plain root
    lo = np.array([1.0, 0.0, -2.0, 1.0])
    hi = np.array([2.0, 1.0, 2.0, 2.0])
    roots = np.array([1.0, 1.0, 0.0, math.sqrt(2.0)])
    got = bisect(lambda x: x - roots, lo, hi, tol=1e-12)
    assert got.tolist()[:3] == [1.0, 1.0, 0.0]
    assert got[3] == bisect(lambda x: x - roots[3], 1.0, 2.0, tol=1e-12)


def test_bisect_array_one_unbracketed_element_raises():
    c = np.array([2.0, -1.0, 3.0])   # x*x - (-1) > 0 on the whole bracket
    with pytest.raises(NoBracketError, match="index"):
        bisect(lambda x: x * x - c, np.ones(3), np.full(3, 2.0))


def test_bisect_broadcasts_scalar_ends_against_an_array():
    c = np.array([1.5, 2.0, 3.5])
    tol = np.array([1e-9, 1e-3, 0.0])
    got = bisect(lambda x: x * x - c, 1.0, 2.0, tol=tol)
    assert got.shape == (3,)
    for i in range(3):
        assert got[i] == bisect(lambda x: x * x - c[i], 1.0, 2.0, tol=tol[i])


def test_seeded_stream_reproducible():
    a = SeededStream(42, 7).generator().random(16)
    b = SeededStream(42, 7).generator().random(16)
    assert np.array_equal(a, b)


def test_seeded_stream_substreams_differ():
    a = SeededStream(42, 0).generator().random(16)
    b = SeededStream(42, 1).generator().random(16)
    c = SeededStream(43, 0).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeded_stream_derive_is_deterministic_and_ordered():
    s = SeededStream(5)
    assert s.derive(1, 2) == s.derive(1, 2)
    assert s.derive(1, 2) != s.derive(2, 1)
    assert s.derive(1).derive(2) == s.derive(1, 2)


def test_seeded_stream_block_generator_disjoint_from_base():
    s = SeededStream(9)
    base = s.generator().random(8)
    blk = s.block_generator(0).random(8)
    assert not np.array_equal(base, blk)


def test_seeded_stream_validation():
    with pytest.raises(ValueError):
        SeededStream(-1)
    with pytest.raises(ValueError):
        SeededStream(0, 2 ** 64)
    # a fractional seed is rejected by name, never truncated to its floor
    with pytest.raises(ValueError, match="master_seed"):
        SeededStream(1.5)
    with pytest.raises(ValueError, match="substream_id"):
        SeededStream(1, 2.0)
    with pytest.raises(ValueError, match="master_seed"):
        MonteCarloConfig(10, 2.9)
    with pytest.raises(ValueError, match="master_seed"):
        MonteCarloConfig(10, 2 ** 64)
    # numpy integers pass and key the same stream as the Python int
    for seed in (np.int64(3), np.uint64(3), np.int32(3)):
        assert SeededStream(seed) == SeededStream(3)
        assert MonteCarloConfig(10, seed).stream(1) == SeededStream(3).derive(1)
    assert np.array_equal(SeededStream(np.uint64(2 ** 64 - 1), np.int64(7)).generator().random(4),
                          SeededStream(2 ** 64 - 1, 7).generator().random(4))


def test_monte_carlo_config_validation():
    with pytest.raises(ValueError):
        MonteCarloConfig(0)
    for bad in (1e4, 2.5, math.nan):
        with pytest.raises(ValueError, match="trials"):
            MonteCarloConfig(bad)
    assert type(MonteCarloConfig(np.int64(10)).trials) is int
    mc = MonteCarloConfig(10, 3)
    assert mc.stream(1, 2) == SeededStream(3).derive(1, 2)


@pytest.mark.parametrize("value", [0, 0.0, 1e-300, 0.5, 1.0 - 2 ** -53, 1, 1.0,
                                   np.float64(0.25), np.float32(1.0), np.int64(0),
                                   Fraction(1, 3)])
def test_check_probability_accepts_the_closed_interval(value):
    out = check_probability("p", value)
    assert type(out) is float and out == float(value)
    if 0.0 < value < 1.0:
        assert check_probability("p", value, strict=True) == float(value)
    else:
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\), got "):
            check_probability("p", value, strict=True)


@pytest.mark.parametrize("value", [-1e-300, -1.0, 1.0 + 2 ** -52, 2, math.nan,
                                   math.inf, -math.inf, np.float64(math.nan),
                                   np.float64(1.5), "0.5", None, 0.5 + 0j, [0.5]])
@pytest.mark.parametrize("strict", [False, True])
def test_check_probability_rejects_by_name(value, strict):
    interval = r"\(0, 1\)" if strict else r"\[0, 1\]"
    with pytest.raises(ValueError, match=rf"^eps must be in {interval}, got "):
        check_probability("eps", value, strict=strict)


def test_check_probability_prints_the_value():
    with pytest.raises(ValueError, match=r"^link outage must be in \[0, 1\], got 2.0$"):
        check_probability("link outage", np.float64(2.0))


@pytest.mark.parametrize("value", [1e-300, 1, 2.5, 1.7e308, np.float32(2.0), np.int64(3),
                                   [1.0, 2.0], (5e-324,), np.array([[1.0, 4.0]])])
def test_check_positive_accepts_finite_positive_values(value):
    assert check_positive("x", value) is None


@pytest.mark.parametrize("value,message", [
    (0, "x must be positive, got 0.0"),
    (-0.0, "x must be positive, got -0.0"),
    (-1, "x must be positive, got -1.0"),
    (math.nan, "x must be positive, got nan"),
    (np.float64(math.nan), "x must be positive, got nan"),
    (-math.inf, "x must be positive, got -inf"),
    (math.inf, "x must be finite, got inf"),
    (np.float64(math.inf), "x must be finite, got inf"),
    # the first offending element, positivity checked before finiteness
    (np.array([1.0, math.inf, 2.0]), "x must be finite, got inf"),
    ([1.0, math.inf, -3.0, math.nan], "x must be positive, got -3.0"),
    (np.array([[2.0, 1.0], [math.nan, 0.0]]), "x must be positive, got nan"),
    ("1.5", "x must be a real number, got '1.5'"),
    (["1.5"], "x must be a real number, got ['1.5']"),
    (True, "x must be a real number, got True"),
    (1 + 0j, "x must be a real number, got (1+0j)"),
    (None, "x must be a real number, got None"),
])
def test_check_positive_rejects_by_name(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_positive("x", value)


def _sum_block(rng, start, count):
    return rng.random(count).sum(), count


def test_run_monte_carlo_counts_all_trials():
    # 10 blocks of 7 plus a partial block of 3
    total, count = run_monte_carlo(73, 7, SeededStream(1), _sum_block)
    assert count == 73
    assert 0.0 < total < 73.0


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_run_monte_carlo_worker_invariance(workers):
    ref = run_monte_carlo(1000, 64, SeededStream(2), _sum_block, workers=1)
    out = run_monte_carlo(1000, 64, SeededStream(2), _sum_block, workers=workers)
    assert ref[0] == out[0]
    assert ref[1] == out[1]


def test_run_monte_carlo_preserves_complex_accumulators():
    # a float64 coercion here would silently drop the imaginary parts
    def block_fn(rng, start, count):
        z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        return (z.sum(),)

    (total,) = run_monte_carlo(500, 32, SeededStream(3), block_fn)
    assert np.iscomplexobj(total)
    assert total.imag != 0.0


def test_run_monte_carlo_array_accumulators():
    def block_fn(rng, start, count):
        return (np.full(4, float(count)),)

    (vec,) = run_monte_carlo(100, 30, SeededStream(0), block_fn)
    assert np.array_equal(vec, np.full(4, 100.0))


def test_run_monte_carlo_validation():
    for runner in (run_monte_carlo, collect_monte_carlo):
        with pytest.raises(ValueError):
            runner(0, 8, SeededStream(0), _sum_block)
        with pytest.raises(ValueError):
            runner(8, 0, SeededStream(0), _sum_block)


def _index_block(rng, start, count):
    return (np.arange(start, start + count, dtype=float),)


def test_collect_monte_carlo_concatenates_in_block_order():
    (out,) = collect_monte_carlo(50, 7, SeededStream(0), _index_block)
    assert np.array_equal(out, np.arange(50, dtype=float))


def test_collect_monte_carlo_worker_invariance():
    ref = collect_monte_carlo(256, 16, SeededStream(4),
                              lambda rng, s, c: (rng.random(c),), workers=1)
    out = collect_monte_carlo(256, 16, SeededStream(4),
                              lambda rng, s, c: (rng.random(c),), workers=4)
    assert np.array_equal(ref[0], out[0])


def test_collect_monte_carlo_rejects_wrong_leading_axis():
    with pytest.raises(ValueError):
        collect_monte_carlo(10, 4, SeededStream(0),
                            lambda rng, s, c: (np.zeros(c + 1),))

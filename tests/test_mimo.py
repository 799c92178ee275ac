"""Covariance-based beamforming: channel model, precoders, link evaluation."""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urllckit import mimo
from urllckit.mimo import (
    DEFAULT_ATTEMPTS_PER_SLOT,
    METHODS,
    ClusterChannelSpec,
    PathCluster,
    Precoder,
    build_precoder,
    covariance,
    draw_channel,
    draw_channels,
    empirical_covariance,
    evaluate,
    random_cluster_spec,
    ula_steering,
)
from urllckit.simcore import MonteCarloConfig, SeededStream

ZF_METHODS = tuple(m for m in METHODS if m != "interference_free")


def test_ula_steering_unit_columns():
    a = ula_steering([0.0, 17.0, -40.0], 16)
    assert a.shape == (16, 3)
    assert np.allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-12)
    # broadside steering is the constant vector
    assert np.allclose(a[:, 0], 1.0 / 4.0)
    with pytest.raises(ValueError):
        ula_steering([0.0], 0)


def test_path_cluster_validation():
    with pytest.raises(ValueError):
        PathCluster((0.0,), (0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        PathCluster((), (), ())
    with pytest.raises(ValueError):
        PathCluster((0.0,), (0.0,), (0.0,))
    c = PathCluster((0.0, 5.0), (1.0, 2.0), (0.7, 0.3))
    assert len(c.powers) == 2
    assert sum(c.powers) == pytest.approx(1.0)


def test_channel_spec_validation():
    c = PathCluster((0.0,), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        ClusterChannelSpec(4, 1, (c,))
    with pytest.raises(TypeError):
        ClusterChannelSpec(4, 1, (c, "not a cluster"))
    with pytest.raises(ValueError):
        ClusterChannelSpec(0, 1, (c, c))
    for m, n, name in ((2.5, 1, "tx_antennas"), (4, 1.5, "rx_antennas"),
                       (4.0, 1, "tx_antennas"), (4, "2", "rx_antennas")):
        with pytest.raises(ValueError, match=name):
            ClusterChannelSpec(m, n, (c, c))
    spec = ClusterChannelSpec(np.int64(4), np.int64(2), (c, c))
    assert type(spec.tx_antennas) is int and spec.rx_antennas == 2


def test_random_cluster_spec_reproducible():
    a = random_cluster_spec(seed=3)
    b = random_cluster_spec(seed=3)
    assert a == b
    assert a != random_cluster_spec(seed=4)


def test_random_cluster_spec_geometry():
    spec = random_cluster_spec(
        32, 2, paths=6, spread_deg=4.0, arrival_spread_deg=90.0,
        departure_centers_deg=(-10.0, 10.0), arrival_centers_deg=(0.0, 50.0),
        seed=9)
    assert spec.tx_antennas == 32
    assert spec.rx_antennas == 2
    for cl, dep_c, arr_c in zip(spec.clusters, (-10.0, 10.0), (0.0, 50.0)):
        assert len(cl.powers) == 6
        assert sum(cl.powers) == pytest.approx(1.0, rel=1e-12)
        assert all(abs(d - dep_c) <= 2.0 for d in cl.departure_deg)
        assert all(abs(a - arr_c) <= 45.0 for a in cl.arrival_deg)
        # exponential decay sorted strongest first
        assert all(p >= q for p, q in zip(cl.powers, cl.powers[1:]))


def test_random_cluster_spec_validation():
    with pytest.raises(ValueError):
        random_cluster_spec(paths=0)
    with pytest.raises(ValueError):
        random_cluster_spec(spread_deg=-1.0)
    # NaN and inf would build all-nan angles or all-zero powers downstream
    for name in ("spread_deg", "arrival_spread_deg", "span_db"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^{name} must be"):
                random_cluster_spec(**{name: bad})
    # a fractional count would build non-unit steering columns downstream
    with pytest.raises(ValueError, match="tx_antennas"):
        random_cluster_spec(tx_antennas=2.5)
    with pytest.raises(ValueError, match="rx_antennas"):
        random_cluster_spec(rx_antennas=1.5)


def test_covariance_trace_and_rank_one():
    single = ClusterChannelSpec(
        16, 1, (PathCluster((12.0,), (0.0,), (2.0,)),
                PathCluster((-20.0,), (0.0,), (1.0,))))
    cov = covariance(single, 0)
    assert np.trace(cov.r_tx).real == pytest.approx(2.0, abs=1e-10)
    assert cov.tx_support.shape[1] == 1
    steer = ula_steering([12.0], 16)[:, 0]
    assert abs(np.vdot(cov.tx_support[:, 0], steer)) == pytest.approx(1.0, abs=1e-10)
    # single receive antenna: scalar covariance equal to the total power
    assert cov.r_rx.shape == (1, 1)
    assert cov.r_rx[0, 0].real == pytest.approx(2.0, abs=1e-12)


def test_covariance_orthogonal_paths():
    # sin spacing of 2/M makes the two steering vectors exactly orthogonal
    m = 8
    theta = math.degrees(math.asin(2.0 / m))
    spec = ClusterChannelSpec(
        m, 1, (PathCluster((0.0, theta), (0.0, 0.0), (0.5, 0.5)),
               PathCluster((60.0,), (0.0,), (1.0,))))
    cov = covariance(spec, 0)
    assert cov.tx_support.shape[1] == 2
    assert cov.tx_eigvals[:2] == pytest.approx([0.5, 0.5], abs=1e-12)
    with pytest.raises(ValueError):
        covariance(spec, 2)


_COVARIANCE_SPECS = {
    "rank-one": lambda: ClusterChannelSpec(
        16, 1, (PathCluster((12.0,), (0.0,), (2.0,)),
                PathCluster((-20.0,), (0.0,), (1.0,)))),
    "orthogonal": lambda: ClusterChannelSpec(
        8, 1, (PathCluster((0.0, math.degrees(math.asin(0.25))), (0.0, 0.0), (0.5, 0.5)),
               PathCluster((60.0,), (0.0,), (1.0,)))),
    "default": lambda: random_cluster_spec(seed=1),
    "rich4": lambda: random_cluster_spec(rx_antennas=4, paths=4, spread_deg=1.0,
                                         arrival_spread_deg=120.0, span_db=3.0, seed=1),
}


@pytest.mark.parametrize("name", list(_COVARIANCE_SPECS))
def test_covariance_eigenstructure(name):
    spec = _COVARIANCE_SPECS[name]()
    for terminal in (0, 1):
        cov = covariance(spec, terminal)
        s = cov.tx_support
        rank = s.shape[1]
        assert s.shape[0] == spec.tx_antennas
        assert np.abs(s.conj().T @ s - np.eye(rank)).max() < 1e-12
        # the nonzero eigenvalues of r_tx, descending, to 1e-12 of the largest;
        # eigvalsh resolves small eigenvalues only to that absolute accuracy
        ev = np.linalg.eigvalsh(cov.r_tx)[::-1]
        assert cov.tx_eigvals.shape == (rank,)
        np.testing.assert_allclose(cov.tx_eigvals, ev[:rank], rtol=0, atol=1e-12 * ev[0])
        assert np.all(np.abs(ev[rank:]) < 1e-12 * ev[0])
        assert np.allclose(cov.r_tx @ s, s * cov.tx_eigvals, rtol=0, atol=1e-12 * ev[0])
        # u_max is a unit eigenvector of r_rx for its largest eigenvalue
        lam = np.linalg.eigvalsh(cov.r_rx)[-1]
        u = cov.u_max
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(cov.r_rx @ u - lam * u) <= 1e-12 * lam


def test_draw_channels_statistics():
    spec = random_cluster_spec(24, 2, paths=5, seed=2)
    rng = np.random.default_rng(0)
    h = draw_channels(spec, 0, 20_000, rng)
    assert h.shape == (20_000, 2, 24)
    power = np.mean(np.sum(np.abs(h) ** 2, axis=(1, 2)))
    assert power == pytest.approx(sum(spec.clusters[0].powers), rel=0.05)


def test_draw_channels_reproducible_and_rank():
    spec = ClusterChannelSpec(
        8, 3, (PathCluster((5.0,), (10.0,), (1.0,)),
               PathCluster((-5.0,), (-10.0,), (1.0,))))
    a = draw_channels(spec, 0, 4, np.random.default_rng(7))
    b = draw_channels(spec, 0, 4, np.random.default_rng(7))
    assert np.array_equal(a, b)
    # one path leaves every realization rank one
    s = np.linalg.svd(a, compute_uv=False)
    assert np.all(s[:, 1:] < 1e-12)
    single = draw_channel(spec, 0, np.random.default_rng(1))
    assert single.shape == (3, 8)


def test_empirical_covariance_converges():
    spec = random_cluster_spec(16, 2, paths=4, seed=5)
    exact = covariance(spec, 0)
    r_tx, r_rx = empirical_covariance(spec, 0, MonteCarloConfig(20_000, 1))
    rel_tx = np.linalg.norm(r_tx - exact.r_tx) / np.linalg.norm(exact.r_tx)
    rel_rx = np.linalg.norm(r_rx - exact.r_rx) / np.linalg.norm(exact.r_rx)
    assert rel_tx < 0.05
    assert rel_rx < 0.05


@pytest.mark.parametrize("rx_antennas, paths", [(1, 10), (2, 4), (4, 4)])
def test_empirical_covariance_block_matches_einsum(rx_antennas, paths):
    # one block's GEMM sums against the per-realization einsum reference
    spec = random_cluster_spec(24, rx_antennas, paths=paths, seed=5)
    mc = MonteCarloConfig(mimo._EVAL_BLOCK, 4)
    r_tx, r_rx = empirical_covariance(spec, 1, mc)
    rng = mc.stream(mimo._EVAL_TAG, 1, 1).block_generator(0)
    h = draw_channels(spec, 1, mc.trials, rng)
    ref_tx = np.einsum("kij,kil->jl", h.conj(), h) / mc.trials
    ref_rx = np.einsum("kij,klj->il", h, h.conj()) / mc.trials
    np.testing.assert_allclose(r_tx, ref_tx, rtol=1e-12, atol=0)
    np.testing.assert_allclose(r_rx, ref_rx, rtol=1e-12, atol=0)


def test_build_precoder_unit_norm_and_nulling():
    spec = random_cluster_spec(seed=1)
    cov0, cov1 = covariance(spec, 0), covariance(spec, 1)
    rng = np.random.default_rng(3)
    h = draw_channels(spec, 0, 50, rng)
    for method in METHODS:
        for k in range(0, 50, 10):
            pre = build_precoder(method, cov0, cov1, csi=h[k])
            assert np.linalg.norm(pre.weights) == pytest.approx(1.0, abs=1e-9)
            if method != "interference_free":
                leak = np.linalg.norm(cov1.tx_support.conj().T @ pre.weights)
                assert leak < 1e-10


@pytest.mark.parametrize("rx_antennas, paths", [(2, 4), (4, 2)])
def test_build_precoder_coherent_gain_is_top_singular_value(rx_antennas, paths):
    # with N != d the two Gram branches must both give the weights that
    # collect sigma_max^2 of the projected channel
    spec = random_cluster_spec(rx_antennas=rx_antennas, paths=paths, seed=1)
    cov0, cov1 = covariance(spec, 0), covariance(spec, 1)
    h = draw_channels(spec, 0, 10, np.random.default_rng(8))
    for method in ("interference_free", "all_sv_coh"):
        other = None if method == "interference_free" else cov1
        span = mimo._PrecoderContext(cov0, other).spans[method]
        for k in range(10):
            f = build_precoder(method, cov0, cov1, csi=h[k]).weights
            smax = np.linalg.svd(h[k] @ span, compute_uv=False)[0]
            assert np.linalg.norm(h[k] @ f) == pytest.approx(smax, rel=1e-12)


def test_build_precoder_needs_csi():
    spec = random_cluster_spec(seed=1)
    cov0, cov1 = covariance(spec, 0), covariance(spec, 1)
    for method in ("interference_free", "all_sv_coh", "strongest_sv_inst"):
        with pytest.raises(ValueError):
            build_precoder(method, cov0, cov1)
    # statistical methods work without instantaneous CSI
    pre = build_precoder("all_sv_ncoh", cov0, cov1)
    assert pre.method == "all_sv_ncoh"
    with pytest.raises(ValueError):
        build_precoder("best", cov0, cov1)


def test_precoder_rejects_non_unit_weights():
    with pytest.raises(ValueError):
        Precoder(weights=np.array([1.0, 1.0], dtype=complex), method="x")


def test_zero_forcing_costs_nothing_for_disjoint_supports():
    # clusters far apart: the projection removes (almost) nothing
    spec = random_cluster_spec(departure_centers_deg=(-40.0, 40.0), seed=2)
    cov0, cov1 = covariance(spec, 0), covariance(spec, 1)
    h = draw_channels(spec, 0, 20, np.random.default_rng(0))
    for k in range(20):
        f_zf = build_precoder("all_sv_coh", cov0, cov1, csi=h[k]).weights
        f_if = build_precoder("interference_free", cov0, cov1, csi=h[k]).weights
        assert abs(np.vdot(f_zf, f_if)) > 0.98


def test_evaluate_pointwise_sinr_ordering():
    # shared channel draws make these orderings exact per realization, not
    # just in the mean
    spec = random_cluster_spec(seed=1)
    ev = evaluate(spec, METHODS, 0.0, "space", MonteCarloConfig(2000, 11))
    r = ev.results
    if_sinr = r["interference_free"].sinr
    coh = r["all_sv_coh"].sinr
    assert np.all(if_sinr >= coh * (1.0 - 1e-9))
    for sub in ("strongest_sv_inst", "all_sv_ncoh", "strongest_sv_av"):
        assert np.all(coh >= r[sub].sinr * (1.0 - 1e-9))


def test_evaluate_mean_ordering_multiantenna():
    spec = random_cluster_spec(rx_antennas=2, seed=1)
    ev = evaluate(spec, METHODS, 0.0, "space", MonteCarloConfig(4000, 5))
    r = ev.results
    assert r["interference_free"].mean_sinr >= r["all_sv_coh"].mean_sinr
    for sub in ("strongest_sv_inst", "all_sv_ncoh", "strongest_sv_av"):
        assert r["all_sv_coh"].mean_sinr >= r[sub].mean_sinr


def test_evaluate_result_fields_and_per_slot():
    spec = random_cluster_spec(seed=1)
    ev = evaluate(spec, ("all_sv_ncoh",), 5.0, "space",
                  MonteCarloConfig(3000, 2), slots=6)
    res = ev.results["all_sv_ncoh"]
    assert res.sinr.shape == (3000,)
    assert res.sinr_ci[0] <= res.mean_sinr <= res.sinr_ci[1]
    aps = DEFAULT_ATTEMPTS_PER_SLOT["all_sv_ncoh"]
    expected = res.mean_per ** (aps * np.arange(1, 7))
    assert np.allclose(res.per_slot, expected, rtol=1e-12)
    assert np.all(np.diff(res.per_slot) <= 0.0)


def test_evaluate_time_multiplexing_staircase():
    spec = random_cluster_spec(seed=1)
    ev = evaluate(spec, ("all_sv_ncoh",), 0.0, "time",
                  MonteCarloConfig(2000, 11), slots=4)
    ps = ev.results["all_sv_ncoh"].per_slot
    # the user transmits every other slot, so slots pair up
    assert ps[0] == ps[1]
    assert ps[2] == ps[3]
    assert ps[2] < ps[0]


def test_evaluate_time_multiplexing_uses_full_power():
    spec = random_cluster_spec(seed=1)
    mc = MonteCarloConfig(2000, 11)
    space = evaluate(spec, ("all_sv_coh",), 10.0, "space", mc)
    time_ = evaluate(spec, ("all_sv_coh",), 10.0, "time", mc)
    assert time_.results["all_sv_coh"].mean_sinr > \
        space.results["all_sv_coh"].mean_sinr


def test_evaluate_interference_free_wins_at_high_power():
    spec = random_cluster_spec(seed=1)
    ev = evaluate(spec, ("interference_free",), 30.0, "space",
                  MonteCarloConfig(2000, 11))
    assert ev.results["interference_free"].mean_per < 1e-12


def test_evaluate_rerun_bit_identical():
    spec = random_cluster_spec(seed=1)
    mc = MonteCarloConfig(5000, 7)
    a = evaluate(spec, ("all_sv_coh", "strongest_sv_av"), 0.0, "space", mc)
    b = evaluate(spec, ("all_sv_coh", "strongest_sv_av"), 0.0, "space", mc)
    for m in ("all_sv_coh", "strongest_sv_av"):
        assert np.array_equal(a.results[m].sinr, b.results[m].sinr)
        assert a.results[m].mean_per == b.results[m].mean_per


def test_evaluate_estimation_noise_perturbs_selection():
    spec = random_cluster_spec(seed=1)
    mc = MonteCarloConfig(2000, 3)
    clean = evaluate(spec, ("strongest_sv_inst",), 0.0, "space", mc)
    noisy = evaluate(spec, ("strongest_sv_inst",), 0.0, "space", mc,
                     estimation_noise_std=2.0)
    c = clean.results["strongest_sv_inst"]
    n = noisy.results["strongest_sv_inst"]
    assert not np.array_equal(c.sinr, n.sinr)
    assert n.mean_sinr <= c.mean_sinr


def test_evaluate_validation():
    spec = random_cluster_spec(seed=1)
    mc = MonteCarloConfig(10, 0)
    with pytest.raises(ValueError):
        evaluate(spec, ("unknown",), 0.0, "space", mc)
    with pytest.raises(ValueError):
        evaluate(spec, ("all_sv_coh",), 0.0, "frequency", mc)
    with pytest.raises(ValueError):
        evaluate(spec, ("all_sv_coh",), 0.0, "space", mc, payload_bits=0)
    for rho_db in (math.nan, math.inf, -math.inf, 4000.0):
        with pytest.raises(ValueError, match="rho_db"):
            evaluate(spec, ("all_sv_coh",), rho_db, "space", mc)
    for name in ("payload_bits", "slots"):
        for bad in (2.5, 3.0, 0):
            with pytest.raises(ValueError, match=name):
                evaluate(spec, ("all_sv_coh",), 0.0, "space", mc, **{name: bad})
    for std in (-1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            evaluate(spec, ("strongest_sv_inst",), 0.0, "space", mc,
                     estimation_noise_std=std)


def test_evaluate_rejects_a_repeated_method():
    # a method named twice would print each of its rows twice
    spec = random_cluster_spec(seed=1)
    with pytest.raises(ValueError, match="'all_sv_ncoh' twice"):
        evaluate(spec, ("all_sv_ncoh", "all_sv_coh", "all_sv_ncoh"), 0.0, "space",
                 MonteCarloConfig(10, 0))


def _reference_weights(method, ctx, h, est):
    """Unit-norm weights per realization, (count, M), from full channels:
    coherent methods take the dominant right singular vector of h @ span
    from np.linalg.svd, strongest_sv_inst picks the span column with the
    largest (noisy) projection on u_max, the rest use the fixed span."""
    span = ctx.spans[method]
    g = h @ span
    if method in ("interference_free", "all_sv_coh"):
        c = np.linalg.svd(g)[2][:, 0, :].conj()
    elif method == "strongest_sv_inst":
        proj = np.einsum("i,kid->kd", ctx.u_max.conj(), g)
        if est is not None:
            proj = proj + est
        c = np.eye(span.shape[1])[np.argmax(np.abs(proj), axis=1)]
    else:
        c = np.ones((h.shape[0], 1))
    return c @ span.T


def _reference_terms(spec, seed, trials, std, space):
    """Redraw evaluate's first block as full channel matrices.

    Returns terminal 0's precoder context and, per method, the signal gain
    and the cross-interference gain that the other terminal's beam leaves
    after the receive filter (0.0 under time multiplexing and for
    interference_free, which counts none), from weights built here.
    """
    rng = SeededStream(seed).derive(mimo._EVAL_TAG, 0).block_generator(0)
    h1 = draw_channels(spec, 0, trials, rng)
    h2 = draw_channels(spec, 1, trials, rng) if space else None
    cov0, cov1 = covariance(spec, 0), covariance(spec, 1)
    ctx0 = mimo._PrecoderContext(cov0, cov1)
    ctx1 = mimo._PrecoderContext(cov1, cov0)
    z = rng.standard_normal(
        (trials, 2, ctx0.spans["strongest_sv_inst"].shape[1]))
    est = (z[:, 0] + 1j * z[:, 1]) * (std / math.sqrt(2.0))
    terms = {}
    for method in METHODS:
        f1 = _reference_weights(
            method, ctx0, h1, est if method == "strongest_sv_inst" else None)
        heff = np.einsum("kij,kj->ki", h1, f1)
        matched = method in ("interference_free", "all_sv_coh", "all_sv_ncoh")
        u = cov0.u_max.conj()
        sig = (np.sum(np.abs(heff) ** 2, axis=1) if matched
               else np.abs(heff @ u) ** 2)
        interf = 0.0
        if space and method != "interference_free":
            f2 = _reference_weights(method, ctx1, h2, None)
            cross = np.einsum("kij,kj->ki", h1, f2)
            interf = (np.abs(np.sum(heff.conj() * cross, axis=1)) ** 2 / sig
                      if matched else np.abs(cross @ u) ** 2)
        terms[method] = (sig, interf)
    return ctx0, terms


# (N, paths): N = 1; N = 4 = d; N = 2 < d (Gram g g^H); N = 4 > d (g^H g)
@pytest.mark.parametrize("multiplexing", ["space", "time"])
@pytest.mark.parametrize("rx_antennas, paths", [
    pytest.param(1, 4, id="1"),
    pytest.param(4, 4, id="4"),
    pytest.param(2, 4, id="2-paths4"),
    pytest.param(4, 2, id="4-paths2"),
])
def test_evaluate_matches_channel_matrix_reference(rx_antennas, paths,
                                                   multiplexing):
    # evaluate projects path gains on fixed spans; redraw its first block as
    # full channel matrices and recompute every SINR from weights built here,
    # the cross interference included, which evaluate leaves out
    spec = random_cluster_spec(rx_antennas=rx_antennas, paths=paths, seed=1)
    seed, trials, rho_db, std = 6, 1500, 3.0, 0.8
    ev = evaluate(spec, METHODS, rho_db, multiplexing,
                  MonteCarloConfig(trials, seed), estimation_noise_std=std)
    space = multiplexing == "space"
    ctx0, terms = _reference_terms(spec, seed, trials, std, space)
    # the coherent span keeps every path, so N against paths picks the
    # Gram branch the id names
    assert ctx0.spans["all_sv_coh"].shape[1] == paths
    power = 10.0 ** (rho_db / 10.0) / (2.0 if space else 1.0)
    for method, (sig, interf) in terms.items():
        ref = power * sig / (power * interf + 1.0)
        np.testing.assert_allclose(ev.results[method].sinr, ref,
                                   rtol=1e-9, atol=0)


_EVAL_GEOMETRIES = {
    "rx1": dict(rx_antennas=1),
    "rx2": dict(rx_antennas=2),
    "rich4": dict(rx_antennas=4, paths=4, spread_deg=1.0,
                  arrival_spread_deg=120.0, span_db=3.0),
}


@pytest.mark.parametrize("std", [0.0, 0.5])
@pytest.mark.parametrize("geometry", list(_EVAL_GEOMETRIES))
def test_zero_forcing_cross_term_is_rounding_noise(geometry, std):
    # evaluate drops the cross term: the other terminal's beam is nulled
    # from covariance alone, so computed from full channels it is rounding
    # noise, far below the half ulp (1.1e-16) of the unit noise power
    spec = random_cluster_spec(seed=1, **_EVAL_GEOMETRIES[geometry])
    _, terms = _reference_terms(spec, 6, 1500, std, True)
    worst = max(float(np.max(interf)) for _, interf in terms.values())
    assert worst > 0.0   # computed, not skipped
    for rho_db in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
        user_power = 10.0 ** (rho_db / 10.0) / 2.0
        assert user_power * worst < 1e-20


@pytest.mark.parametrize("multiplexing", ["space", "time"])
@pytest.mark.parametrize("nested", [0, 1])
def test_evaluate_rejects_nested_support(nested, multiplexing):
    # a terminal whose transmit support lies in the other's span has no
    # zero-forcing beam; terminal 1 enters no SINR but is checked as well
    wide = PathCluster((0.0, 30.0), (0.0, 10.0), (0.6, 0.4))
    inner = PathCluster((0.0,), (5.0,), (1.0,))
    spec = ClusterChannelSpec(8, 1, (inner, wide) if nested == 0 else (wide, inner))
    with pytest.raises(ValueError, match="lies entirely in the interferer's span"):
        evaluate(spec, ZF_METHODS, 10.0, multiplexing, MonteCarloConfig(64, 1))


def _reference_stream_sinr(spec, rho_db, space, std, seed, trials):
    """evaluate's SINR rebuilt block by block from the stream's layout.

    Each block draws terminal 0's path gains, then terminal 1's in space
    multiplexing, then the estimation noise, every draw as a (count, 2, K)
    standard normal of real and imaginary parts.  Each method is projected
    through its own gain map, and the coherent methods take sigma_max^2
    from an SVD.
    """
    cov0, cov1 = covariance(spec, 0), covariance(spec, 1)
    ctx = mimo._PrecoderContext(cov0, cov1)
    paths = mimo._steering_factors(spec, 0)
    power = 10.0 ** (rho_db / 10.0) / (2.0 if space else 1.0)
    stream = SeededStream(seed).derive(mimo._EVAL_TAG, 0)

    def gaussian(rng, count, scale):
        z = rng.standard_normal((count, 2, len(scale)))
        return (z[:, 0] + 1j * z[:, 1]) * scale

    blocks = []
    for b, start in enumerate(range(0, trials, mimo._EVAL_BLOCK)):
        count = min(mimo._EVAL_BLOCK, trials - start)
        rng = stream.block_generator(b)
        a1 = gaussian(rng, count, np.sqrt(paths[2] / 2.0))
        if space:
            gaussian(rng, count, np.sqrt(np.asarray(spec.clusters[1].powers) / 2.0))
        d_inst = ctx.spans["strongest_sv_inst"].shape[1]
        est = gaussian(rng, count, np.full(d_inst, std / math.sqrt(2.0)))
        sinr = []
        for method in METHODS:
            g = mimo._project(a1, mimo._gain_map(paths, ctx.spans[method]),
                              spec.rx_antennas)
            if method in ("interference_free", "all_sv_coh"):
                sig = np.linalg.svd(g, compute_uv=False)[:, 0] ** 2
            else:
                c = mimo._coefficients(method, ctx, g, est)
                heff = np.einsum("kid,kd->ki", g, c)
                sig = (np.sum(np.abs(heff) ** 2, axis=1) if method == "all_sv_ncoh"
                       else np.abs(heff @ ctx.u_max.conj()) ** 2)
            sinr.append(power * sig)
        blocks.append(np.stack(sinr, axis=1))
    return np.concatenate(blocks)


@pytest.mark.parametrize("std", [0.0, 0.5])
@pytest.mark.parametrize("multiplexing", ["space", "time"])
@pytest.mark.parametrize("geometry", list(_EVAL_GEOMETRIES))
def test_evaluate_follows_the_stream_layout(geometry, multiplexing, std):
    # evaluate skips terminal 1's gains where nothing is drawn after them
    # and projects all methods in one product; neither may move a draw.  A
    # misplaced draw changes every SINR at O(1).  One product over all
    # maps may round differently from a product per map in the last bits,
    # as BLAS picks its kernel by a product's column count and layout, so
    # the SINRs are compared to 1e-12.  The last block is partial.
    spec = random_cluster_spec(seed=1, **_EVAL_GEOMETRIES[geometry])
    seed, trials, rho_db = 4, mimo._EVAL_BLOCK + 700, 10.0
    ev = evaluate(spec, METHODS, rho_db, multiplexing,
                  MonteCarloConfig(trials, seed), estimation_noise_std=std)
    ref = _reference_stream_sinr(spec, rho_db, multiplexing == "space", std,
                                 seed, trials)
    for col, method in enumerate(METHODS):
        np.testing.assert_allclose(ev.results[method].sinr, ref[:, col],
                                   rtol=1e-12, atol=0, err_msg=method)


def test_project_in_pieces_below_the_blas_pool():
    # a map of _GEMV_POOL elements or more is projected in column pieces;
    # the pieces join into the product of the whole map
    rng = np.random.default_rng(5)
    p, n_rx, d = 20, 8, 62
    assert p * n_rx * d >= 2 * mimo._GEMV_POOL
    gain_map = rng.standard_normal((p, n_rx * d)) + 1j * rng.standard_normal((p, n_rx * d))
    alpha = rng.standard_normal((50, p)) + 1j * rng.standard_normal((50, p))
    g = mimo._project(alpha, gain_map, n_rx)
    assert g.shape == (50, n_rx, d)
    ref = np.einsum("kp,pj->kj", alpha, gain_map).reshape(50, n_rx, d)
    np.testing.assert_allclose(g, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("geometry, std", [
    pytest.param("rx1", 0.0, id="rx1"),
    pytest.param("rich4", 0.0, id="rich4"),
    # the widest maps: 20 paths on 8 antennas, so the methods' maps hold
    # 20 x 496 elements together, more than two gemv pool sizes
    pytest.param("rx8-paths20", 0.5, id="rx8-paths20"),
])
def test_evaluate_starts_no_blas_thread(geometry, std):
    # a BLAS call large enough for OpenBLAS's thread pool leaves the idle
    # pool thread spinning for about 0.13 s, so process CPU time keeps
    # running while the caller sleeps; evaluate's calls stay below that size
    geometries = {**_EVAL_GEOMETRIES, "rx8-paths20": dict(rx_antennas=8, paths=20)}
    spec = random_cluster_spec(seed=1, **geometries[geometry])
    if geometry == "rx8-paths20":
        ctx = mimo._PrecoderContext(covariance(spec, 0), covariance(spec, 1))
        width = sum(spec.rx_antennas * ctx.spans[m].shape[1] for m in METHODS)
        assert 20 * width >= 2 * mimo._GEMV_POOL
    time.sleep(0.2)   # let any spin left by earlier tests end
    evaluate(spec, METHODS, 10.0, "space", MonteCarloConfig(4096, 1),
             estimation_noise_std=std)
    cpu = time.process_time()
    time.sleep(0.05)
    assert time.process_time() - cpu < 0.01


def _with_singular_values(sv, shape, rng, count):
    """count complex (N, d) matrices with singular values sv: the bare
    diagonal first (a tie there is exact), then random unitary rotations."""
    def unitary(n):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(z)[0]
    s = np.zeros(shape, dtype=complex)
    s[np.arange(len(sv)), np.arange(len(sv))] = sv
    rotated = [unitary(shape[0]) @ s @ unitary(shape[1]).conj().T
               for _ in range(count - 1)]
    return np.stack([s] + rotated)


@pytest.mark.parametrize("kind, shape", [
    ("tie", (2, 5)), ("tie", (3, 3)), ("tie", (5, 2)),
    ("rank1", (2, 5)), ("rank1", (3, 3)), ("rank1", (5, 2)),
    ("rank1", (1, 4)), ("rank1", (4, 1)),
])
def test_top_singular_degenerate(kind, shape):
    # a tie sigma_1 = sigma_2 makes any vector of the tied subspace a
    # maximizer; a rank-1 g leaves the other Gram eigenvalues at zero
    rng = np.random.default_rng(11)
    r = min(shape)
    sv = [2.0, 2.0, 0.5][:r] if kind == "tie" else [3.0] + [0.0] * (r - 1)
    g = _with_singular_values(sv, shape, rng, 6)
    smax2 = sv[0] ** 2
    c = mimo._coefficients("all_sv_coh", None, g, None)
    assert c.shape == (6, shape[1])
    np.testing.assert_allclose(np.linalg.norm(c, axis=1), 1.0, rtol=1e-12)
    gain = np.sum(np.abs(np.einsum("kid,kd->ki", g, c)) ** 2, axis=1)
    np.testing.assert_allclose(gain, smax2, rtol=1e-12)
    np.testing.assert_allclose(mimo._top_singular(g), smax2, rtol=1e-12)


def _gram_top(g):
    """Top eigenvalue of the smaller Gram matrix of each g, by eigvalsh."""
    gh = g.conj().swapaxes(1, 2)
    gram = g @ gh if g.shape[1] <= g.shape[2] else gh @ g
    return np.linalg.eigvalsh(gram)[:, -1]


@given(
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    kind=st.sampled_from(["spread", "tie", "near_tie", "cluster", "rank_deficient",
                          "zero"]),
    gap_exp=st.floats(3.0, 12.0),
    scale_exp=st.floats(-150.0, 150.0),
    count=st.integers(1, 4),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_top_singular_matches_eigvalsh(shape, kind, gap_exp, scale_exp, count, seed):
    # every row is either certified by the Newton iteration or recomputed
    # by eigvalsh, so each agrees with eigvalsh at any n, spectrum and scale
    rng = np.random.default_rng(seed)
    r = min(shape)
    sv = np.sort(rng.uniform(0.1, 1.0, r))[::-1]
    sv[0] = 1.0
    if kind == "tie":
        sv[:int(rng.integers(2, r + 1)) if r > 1 else 1] = 1.0
    elif kind == "near_tie" and r > 1:
        sv[1] = 1.0 - 10.0 ** -gap_exp
    elif kind == "cluster":
        sv[1:] = 1.0 - 10.0 ** -gap_exp * rng.uniform(0.0, 1.0, r - 1)
    elif kind == "rank_deficient" and r > 1:
        sv[int(rng.integers(1, r)):] = 0.0
    elif kind == "zero":
        sv[:] = 0.0
    g = _with_singular_values(sv, shape, rng, count) * 10.0 ** scale_exp
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = mimo._top_singular(g)
    np.testing.assert_allclose(got, _gram_top(g), rtol=1e-12, atol=0.0)


def test_top_singular_sends_only_degenerate_rows_to_eigvalsh(monkeypatch):
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        rows.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    # the benchmark's rich4 run at angle seed 1: 2 x 12,288 4 x 4 Gram
    # matrices, every one certified
    spec = random_cluster_spec(seed=1, **_EVAL_GEOMETRIES["rich4"])
    res = evaluate(spec, METHODS, 10.0, "space", MonteCarloConfig(12_288, 0))
    assert res.results["all_sv_coh"].sinr.shape == (12_288,)
    assert sum(rows) == 0
    # an exact tie sigma_1 = sigma_2 resolves only to sqrt(eps) through the
    # polynomial, so each of those rows goes to eigvalsh
    rng = np.random.default_rng(11)
    for shape in ((2, 5), (3, 3), (5, 2)):
        rows.clear()
        g = _with_singular_values([2.0, 2.0, 0.5][:min(shape)], shape, rng, 6)
        np.testing.assert_allclose(mimo._top_singular(g), 4.0, rtol=1e-12)
        assert sum(rows) == 6


def test_top_singular_residual_rejects_unresolved_and_unfinished_roots(monkeypatch):
    # rows only the residual test rejects, as each root lies at or above
    # the top eigenvalue: a near-tie, which the polynomial resolves to
    # 1.6e-11 relative, and roots cut off by the step limit
    rng = np.random.default_rng(11)
    near = _with_singular_values([1.0, 1.0 - 1e-5], (2, 5), rng, 6)
    np.testing.assert_allclose(mimo._top_singular(near), _gram_top(near),
                               rtol=1e-12, atol=0.0)
    spread = _with_singular_values([1.0, 0.8, 0.5, 0.2], (4, 4), rng, 6)
    monkeypatch.setattr(mimo, "_NEWTON_STEPS", 1)
    np.testing.assert_allclose(mimo._top_singular(spread), _gram_top(spread),
                               rtol=1e-12, atol=0.0)


def test_top_singular_certificate_keeps_only_the_top_root():
    # eigenvalues 1/2, 3/8 and 1/8, so P and its values are exact: the third
    # root has P' > 0 and zero residual, and only the top-root test rejects it
    eig = np.array([0.5, 0.375, 0.125])
    sums = [np.sum(eig ** k, keepdims=True) for k in (1, 2, 3)]
    c, h = mimo._char_poly(sums)

    def certified(lam):
        lam = np.array([lam])
        return bool(mimo._certified(h, sums[-1], lam, *mimo._monic_horner(c, lam))[0])

    assert certified(0.5)
    assert not certified(0.375)       # P' < 0 at the second root
    assert not certified(0.125)
    assert not certified(0.5 + 1e-9)  # not yet a root

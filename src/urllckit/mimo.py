"""Covariance-based zero-forcing beamforming for two clustered terminals.

A large base-station array serves two terminals whose multipath lives in
narrow angular clusters, so each terminal's transmit covariance has low
rank.  The long-term structure alone pins down the zero-forcing part of
the precoder: projecting away the interferer's covariance support nulls
the cross channel for every fading realization, no instantaneous cross-CSI
needed.  covariance() keeps what the precoders read: the nonzero transmit
eigenpairs, from an SVD of the power-weighted steering matrix, and the
dominant receive eigenvector.  What remains is how to spend the in-cluster
degrees of freedom, and that is where the methods differ:

  interference_free  coherent matched beamforming, nulling skipped
                     (genie upper bound, interference not counted)
  all_sv_coh         coherent combining across the projected covariance
                     eigenvectors (needs own-channel CSI)
  strongest_sv_inst  pick the single projected eigenvector with the
                     strongest current projection (partial CSI)
  all_sv_ncoh        fixed superposition of all projected eigenvectors,
                     amplitudes sqrt(eigenvalue) (no CSI)
  strongest_sv_av    the dominant projected eigenvector (no CSI)

Each precoder is a fixed span from the covariances times per-realization
coefficients (dominant right singular vector, one-hot pick, or 1).  As
H = S_rx diag(alpha) S_tx^H, the projection H @ span is linear in the path
gains alpha: evaluate builds each span's map from alpha once per call and
sets the maps of all evaluated methods side by side, so one stacked
product projects the drawn gains on every span at once, and it never
forms a channel matrix or a full precoder per realization.  A coherent
method with its matched filter collects sigma_max^2 of g = H @ span, so
evaluate takes only that eigenvalue, from the smaller Gram matrix (g g^H
or g^H g), and never forms the weights: the top eigenvector of g^H g in
build_precoder.  It takes the eigenvalue of all rows at once, without a
LAPACK call per row: the trace-scaled Gram matrix's power sums give its
characteristic polynomial by Newton's identities, and a certified Newton
iteration from the Wolkowicz-Styan upper bound finds the top root.  A row
whose root the rounding bound cannot certify to 1e-12 relative (a tie or
near-tie at the top, a zero or non-finite matrix) goes to eigvalsh.

evaluate computes no cross interference.  The other terminal's span lies
in the orthogonal complement of the observed terminal's transmit support,
which the columns of its S_tx span, so H_0 f = S_rx diag(alpha) S_tx^H f
is zero by construction for every f on that span.  In floating point the
term is rounding noise: user_power |r^H H_0 f|^2 stays below 1e-20 up to
60 dB, and adding it to the unit noise power changed no SINR bit.

Everything runs on the calling thread, BLAS included.  A block is a few
milliseconds of small batched products and elementwise steps, too little
to pay for a thread pool.  So the calls are shaped to stay below OpenBLAS's
threading sizes (a thin SVD, stacked per-row products, covariances formed
only when read): a call large enough for the pool leaves its idle thread
spinning for a tenth of a second, which doubled the CPU time of a run.
A stacked product is a matrix-vector product per row, which OpenBLAS
threads from 4096 matrix elements up, so a wider map goes in column
pieces below that size.

evaluate draws, per block, terminal 0's path gains, then terminal 1's in
space multiplexing, then the estimation noise of strongest_sv_inst.  No
SINR reads terminal 1's gains; they hold the noise's place in the stream,
so they are drawn only where the noise follows them.

Receivers: methods transmitting across all eigenvectors use a matched
filter on the aggregate effective channel, which collects sigma_max^2 of
g = H @ span, so evaluate takes that from _top_singular for all three
(||g||^2 for all_sv_ncoh's one-column span).  The strongest-vector
methods project on the dominant receive eigenvector u_max, so evaluate
picks a column of g (strongest_sv_inst the one with the largest
|u_max^H g| after estimation noise, strongest_sv_av its only one) and
takes the power of u_max^H on it.  Neither path forms weights or an
effective channel.  Methods without full CSI spend half the training, so
they fit two packets per slot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .simcore import (
    Estimate,
    MonteCarloConfig,
    SeededStream,
    check_count,
    check_finite,
    check_nonnegative,
    check_positive,
    check_real,
    collect_monte_carlo,
    q_function,
    run_monte_carlo,
)

__all__ = [
    "METHODS",
    "DEFAULT_ATTEMPTS_PER_SLOT",
    "PathCluster",
    "ClusterChannelSpec",
    "CovariancePair",
    "Precoder",
    "MethodResult",
    "MimoEvaluation",
    "ula_steering",
    "random_cluster_spec",
    "covariance",
    "draw_channel",
    "draw_channels",
    "empirical_covariance",
    "build_precoder",
    "evaluate",
]

METHODS = (
    "interference_free",
    "all_sv_coh",
    "strongest_sv_inst",
    "all_sv_ncoh",
    "strongest_sv_av",
)
# method groups: coefficient rule, CSI need, receive combiner
_COHERENT = METHODS[:2]
_NEEDS_CSI = METHODS[:3]
_MATCHED_RX = ("interference_free", "all_sv_coh", "all_sv_ncoh")

# full-CSI coherent methods train twice as long, so half the packets fit
DEFAULT_ATTEMPTS_PER_SLOT = {
    "interference_free": 1,
    "all_sv_coh": 1,
    "strongest_sv_inst": 2,
    "all_sv_ncoh": 2,
    "strongest_sv_av": 2,
}

_SCENARIO_TAG = 301
_EVAL_TAG = 302

_EVAL_BLOCK = 2048
# complex elements of the projections a block holds at once: a block runs
# in chunks of rows whose projections on every method's span fit in this
# many, which changes no value, as every step is per row
_PROJECT_ELEMENTS = 1 << 15
# OpenBLAS runs a matrix-vector product on its thread pool from this many
# matrix elements up (m * n >= 1024 * GEMM_MULTITHREAD_THRESHOLD)
_GEMV_POOL = 4096
# relative error up to which _top_singular keeps its Newton root, and the
# most Newton steps it takes: every certified root seen took at most 15
# (rich4 at most 8), while a tie converges only linearly and would keep its
# whole chunk stepping; a row cut off goes to eigvalsh
_TOP_EIG_RTOL = 1e-12
_NEWTON_STEPS = 16


def ula_steering(angles_deg, n_antennas: int) -> np.ndarray:
    """Unit-norm steering columns of a half-wavelength ULA, one per angle."""
    n_antennas = check_count("n_antennas", n_antennas)
    a = np.deg2rad(np.atleast_1d(np.asarray(angles_deg, dtype=float)))
    k = np.arange(n_antennas)[:, None]
    return np.exp(1j * math.pi * k * np.sin(a)[None, :]) / math.sqrt(n_antennas)


@dataclass(frozen=True)
class PathCluster:
    """Planar paths of one terminal: departure/arrival angles and powers."""

    departure_deg: tuple
    arrival_deg: tuple
    powers: tuple

    def __post_init__(self):
        dep = tuple(float(v) for v in self.departure_deg)
        arr = tuple(float(v) for v in self.arrival_deg)
        pw = tuple(float(v) for v in self.powers)
        if not len(dep) == len(arr) == len(pw):
            raise ValueError("departure, arrival, powers must have equal length")
        if len(pw) == 0:
            raise ValueError("need at least one path")
        check_finite("departure_deg", self.departure_deg)
        check_finite("arrival_deg", self.arrival_deg)
        check_positive("powers", self.powers)
        object.__setattr__(self, "departure_deg", dep)
        object.__setattr__(self, "arrival_deg", arr)
        object.__setattr__(self, "powers", pw)


@dataclass(frozen=True)
class ClusterChannelSpec:
    """Two-terminal downlink: M-antenna transmitter, N-antenna terminals."""

    tx_antennas: int
    rx_antennas: int
    clusters: tuple

    def __post_init__(self):
        for name in ("tx_antennas", "rx_antennas"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if len(self.clusters) != 2:
            raise ValueError("exactly two terminals expected")
        for c in self.clusters:
            if not isinstance(c, PathCluster):
                raise TypeError("clusters must be PathCluster instances")
        object.__setattr__(self, "clusters", tuple(self.clusters))


def random_cluster_spec(
    tx_antennas: int = 100,
    rx_antennas: int = 1,
    *,
    paths: int = 10,
    spread_deg: float = 10.0,
    arrival_spread_deg: Optional[float] = None,
    span_db: float = 20.0,
    departure_centers_deg: Sequence[float] = (-6.0, 6.0),
    arrival_centers_deg: Sequence[float] = (-30.0, 30.0),
    seed: int = 1,
) -> ClusterChannelSpec:
    """Draw a two-terminal scenario: angles uniform within each cluster
    spread, powers decaying exponentially over span_db (strongest first)
    and summing to 1 in each cluster.

    arrival_spread_deg defaults to spread_deg; setting it wider than the
    departure spread models terminals in rich local scattering seen through
    a narrow departure sector.  Each center sequence gives one center per
    terminal, so it must have exactly 2 entries.
    """
    for name, centers in (("departure_centers_deg", departure_centers_deg),
                          ("arrival_centers_deg", arrival_centers_deg)):
        if len(centers) != 2:
            raise ValueError(f"{name} must be 2 centers, one per terminal, "
                             f"got {centers!r}")
    paths = check_count("paths", paths)
    check_nonnegative("spread_deg", spread_deg)
    if arrival_spread_deg is None:
        arrival_spread_deg = spread_deg
    check_nonnegative("arrival_spread_deg", arrival_spread_deg)
    check_nonnegative("span_db", span_db)
    rng = SeededStream(seed).derive(_SCENARIO_TAG).generator()
    decay = np.power(10.0, -span_db / 10.0 * np.arange(paths) / max(paths - 1, 1))
    decay = decay / decay.sum()
    clusters = []
    for dep_c, arr_c in zip(departure_centers_deg, arrival_centers_deg):
        dep = dep_c + spread_deg * (rng.random(paths) - 0.5)
        arr = arr_c + arrival_spread_deg * (rng.random(paths) - 0.5)
        clusters.append(PathCluster(tuple(dep), tuple(arr), tuple(decay)))
    return ClusterChannelSpec(tx_antennas, rx_antennas, tuple(clusters))


@dataclass(frozen=True, eq=False)
class CovariancePair:
    """Transmit/receive covariance of one terminal with eigenstructure.

    tx_factor (M x P) and rx_factor (N x P) are the power-weighted steering
    matrices, R = A A^H; r_tx and r_rx are formed from them only when read.
    tx_eigvals are the numerically nonzero transmit eigenvalues, descending,
    and tx_support (M x rank) is the matching orthonormal basis, computed
    from tx_factor so the span stays exact even when the covariance
    eigenproblem is ill conditioned.  u_max is the dominant receive
    eigenvector.
    """

    tx_factor: np.ndarray
    rx_factor: np.ndarray
    tx_eigvals: np.ndarray
    tx_support: np.ndarray
    u_max: np.ndarray

    @property
    def r_tx(self) -> np.ndarray:
        return self.tx_factor @ self.tx_factor.conj().T

    @property
    def r_rx(self) -> np.ndarray:
        return self.rx_factor @ self.rx_factor.conj().T


def _eig_from_weighted(a: np.ndarray):
    """Nonzero eigenvalues (descending) of a a^H and their orthonormal
    eigenvectors, from the thin factor a."""
    # the thin SVD: the full one computes a max(a.shape)-square u only to
    # drop its columns past the rank, and OpenBLAS runs it on its thread pool
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * max(a.shape) * np.finfo(float).eps))
    return s[:rank] ** 2, u[:, :rank]


def _steering_factors(spec: ClusterChannelSpec, terminal: int):
    """(S_rx, S_tx, powers) of one terminal: H = S_rx diag(alpha) S_tx^H."""
    cl = spec.clusters[terminal]
    return (
        ula_steering(cl.arrival_deg, spec.rx_antennas),
        ula_steering(cl.departure_deg, spec.tx_antennas),
        np.asarray(cl.powers),
    )


def covariance(spec: ClusterChannelSpec, terminal: int) -> CovariancePair:
    """Long-term transmit and receive covariance of one terminal (0 or 1)."""
    if terminal not in (0, 1):
        raise ValueError("terminal must be 0 or 1")
    s_rx, s_tx, powers = _steering_factors(spec, terminal)
    sqrtp = np.sqrt(powers)
    a_tx = s_tx * sqrtp[None, :]
    a_rx = s_rx * sqrtp[None, :]
    tx_vals, tx_support = _eig_from_weighted(a_tx)
    return CovariancePair(
        tx_factor=a_tx,
        rx_factor=a_rx,
        tx_eigvals=tx_vals,
        tx_support=tx_support,
        u_max=_eig_from_weighted(a_rx)[1][:, 0],
    )


def _complex_gaussian(rng: np.random.Generator, count: int,
                      scale: np.ndarray) -> np.ndarray:
    """count rows of (z0 + 1j z1) * scale, z i.i.d. standard normal."""
    z = rng.standard_normal((count, 2, scale.size))
    return (z[:, 0] + 1j * z[:, 1]) * scale


def _gain_map(paths, span: np.ndarray) -> np.ndarray:
    """Map W, (P, N*d), from path gains to projections on span.

    For H = S_rx diag(alpha) S_tx^H, H @ span = sum_p alpha_p S_rx[:, p]
    (S_tx^H span)[p, :], so W[p] = S_rx[:, p] outer (S_tx^H span)[p, :].
    """
    s_rx, s_tx, _ = paths
    t = s_tx.conj().T @ span
    return (s_rx.T[:, :, None] * t[:, None, :]).reshape(t.shape[0], -1)


def _project(alpha: np.ndarray, gain_map: np.ndarray, n_rx: int) -> np.ndarray:
    """H_k @ span for every row alpha_k, (count, N, d).

    A stacked product of rows, not one (count x P) GEMM, taken over column
    pieces of the map with fewer than _GEMV_POOL elements each: OpenBLAS
    runs the GEMM, and a row's product from that size up, on its thread
    pool, whose idle thread then spins.
    """
    g = np.empty((alpha.shape[0], 1, gain_map.shape[1]), dtype=complex)
    width = max(1, (_GEMV_POOL - 1) // gain_map.shape[0])
    for lo in range(0, gain_map.shape[1], width):
        np.matmul(alpha[:, None, :], gain_map[:, lo:lo + width],
                  out=g[:, :, lo:lo + width])
    return g.reshape(alpha.shape[0], n_rx, -1)


def draw_channels(spec: ClusterChannelSpec, terminal: int, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """count i.i.d. channel realizations, shape (count, N, M).

    Each path carries a circularly symmetric complex gain with variance
    equal to its power, so E||H||_F^2 = sum(powers).
    """
    paths = _steering_factors(spec, terminal)
    alpha = _complex_gaussian(rng, count, np.sqrt(paths[2] / 2.0))
    return _project(alpha, _gain_map(paths, np.eye(spec.tx_antennas)),
                    spec.rx_antennas)


def draw_channel(spec: ClusterChannelSpec, terminal: int,
                 rng: np.random.Generator) -> np.ndarray:
    """One channel realization, shape (N, M)."""
    return draw_channels(spec, terminal, 1, rng)[0]


def empirical_covariance(spec: ClusterChannelSpec, terminal: int,
                         mc: MonteCarloConfig):
    """Monte-Carlo estimates of (R_tx, R_rx) for convergence checks.

    A block's sums over realizations are two GEMMs: R_tx from the rows of
    every H_k stacked, R_rx from their columns side by side.
    """
    def block_fn(rng, start, count):
        h = draw_channels(spec, terminal, count, rng)
        rows = h.reshape(-1, h.shape[2])
        cols = h.transpose(1, 0, 2).reshape(h.shape[1], -1)
        return rows.conj().T @ rows, cols @ cols.conj().T

    r_tx_sum, r_rx_sum = run_monte_carlo(
        mc.trials, _EVAL_BLOCK, mc.stream(_EVAL_TAG, terminal, 1), block_fn)
    return r_tx_sum / mc.trials, r_rx_sum / mc.trials


@dataclass(frozen=True, eq=False)
class Precoder:
    """Single-stream beamforming weights, unit norm; power applied per user."""

    weights: np.ndarray
    method: str

    def __post_init__(self):
        n = float(np.linalg.norm(self.weights))
        if not math.isclose(n, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"weights must be unit norm, got {n}")


def _projected_support(own: CovariancePair, other: Optional[CovariancePair]):
    """own's transmit eigenvectors projected away from other's support
    (None skips the projection), their norms, and the mask of those that
    keep a nonzero part; ValueError if none does, as then no zero-forcing
    beam exists."""
    v = own.tx_support
    projected = v
    if other is not None:
        b = other.tx_support
        projected = v - b @ (b.conj().T @ v)
    norms = np.linalg.norm(projected, axis=0)
    keep = norms > 1e-12
    if not np.any(keep):
        raise ValueError(
            "own covariance support lies entirely in the interferer's span")
    return projected, norms, keep


class _PrecoderContext:
    """Static per-terminal quantities shared by every realization.

    spans[method] (M x d) is the fixed part of the method's precoder
    span @ c.  All but interference_free's lie in the own transmit support
    projected away from the interferer's (None skips the projection).
    """

    def __init__(self, own: CovariancePair, other: Optional[CovariancePair]):
        self.u_max = own.u_max
        v = own.tx_support
        lam = own.tx_eigvals
        projected, norms, keep = _projected_support(own, other)
        # per-eigenvector unit directions (strongest-SV selection)
        directions = projected[:, keep] / norms[keep]
        # orthonormal basis of the projected subspace (coherent combining)
        _, q = _eig_from_weighted(projected[:, keep])
        # fixed non-coherent superposition, sqrt(eigenvalue) amplitudes
        f = projected[:, keep] @ np.sqrt(lam[keep])
        self.spans = {
            "interference_free": v,
            "all_sv_coh": q,
            "strongest_sv_inst": directions,
            "all_sv_ncoh": (f / np.linalg.norm(f))[:, None],
            "strongest_sv_av": directions[:, :1],
        }


def _top_singular(g: np.ndarray) -> np.ndarray:
    """sigma_max^2 of each g, (count, N, d) -> (count,), from the smaller
    Gram matrix: g g^H when N <= d, else g^H g.

    The top eigenvalue of all n x n Gram matrices at once, elementwise
    over the rows.  Scaled by its trace, a Gram matrix A has eigenvalues in
    [0, 1] summing to 1, so nothing below under- or overflows.  The power
    sums p_k = tr(A^k), k <= n, come from the powers of A up to ceil(n/2)
    (one stacked product for n <= 4), and Newton's identities turn them
    into the characteristic polynomial P (_char_poly).  Its roots are all
    real, so Newton's iteration started above the largest one, at the
    Wolkowicz-Styan bound m + s sqrt(n - 1) (m and s^2 the mean and
    variance of the eigenvalues), decreases monotonically to it; it stops
    once no row decreases, or after _NEWTON_STEPS.  A row's root is kept
    only if _certified; the others (ties, near-ties, rows cut off by the
    step limit, zero or non-finite matrices) go to eigvalsh.
    """
    gh = g.conj().swapaxes(1, 2)
    gram = g @ gh if g.shape[1] <= g.shape[2] else gh @ g
    count, n = gram.shape[:2]
    if n == 1:
        return gram[:, 0, 0].real
    trace = np.einsum("kii->k", gram).real
    # a zero or non-finite trace, or a step at a multiple root, leaves NaN
    # or inf in a row, which then fails the certificate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = (gram.view(float) / trace[:, None, None]).view(complex)
        powers = [a]
        while len(powers) < (n + 1) // 2:
            powers.append(powers[-1] @ a)
        # tr(x y) = sum_ij x_ij conj(y_ij) for Hermitian y, over the real
        # view of each power; p_k = tr(A^i A^(k-i)), 1 <= i, k - i <= ceil(n/2)
        flat = [x.view(float).reshape(count, -1) for x in powers]
        sums = [np.einsum("kii->k", a).real] + [
            np.einsum("ki,ki->k", flat[(k + 1) // 2 - 1], flat[k // 2 - 1])
            for k in range(2, n + 1)]
        c, h = _char_poly(sums)
        mean = sums[0] / n
        lam = mean + math.sqrt(n - 1) * np.sqrt(
            np.maximum(sums[1] / n - mean * mean, 0.0))
        for _ in range(_NEWTON_STEPS):
            p, dp = _monic_horner(c, lam)
            step = lam - p / dp
            down = step < lam
            if not down.any():
                break
            lam = np.where(down, step, lam)
        else:
            p, dp = _monic_horner(c, lam)
        ok = _certified(h, sums[-1], lam, p, dp)
    top = lam * trace
    if not ok.all():
        top[~ok] = np.linalg.eigvalsh(gram[~ok])[:, -1]
    return top


def _char_poly(sums):
    """Coefficients [None, c_1, ..., c_n] of the monic characteristic
    polynomial P(x) = x^n + c_1 x^(n-1) + ... + c_n from the power sums
    [p_1, ..., p_n], and alongside them the complete homogeneous sums h_k.

    Newton's identities, k c_k = -sum_{i=1..k} c_{k-i} p_i with c_0 = 1;
    h has k h_k = sum_{i=1..k} h_{k-i} p_i, which for nonnegative
    eigenvalues bounds every term of that sum.
    """
    c, h = [None], [None]
    for k in range(1, len(sums) + 1):
        signed = magnitude = sums[k - 1]
        for i in range(1, k):
            signed = signed + c[k - i] * sums[i - 1]
            magnitude = magnitude + h[k - i] * sums[i - 1]
        c.append(signed / -k)
        h.append(magnitude / k)
    return c, h


def _certified(h, p_n, lam, p, dp):
    """Rows where lam is the top root of P to _TOP_EIG_RTOL relative, for
    P(lam) = p and P'(lam) = dp, with h and p_n as in _char_poly.

    - Residual: rounding moves P(lam) by at most about n eps H(lam), where
      H has the coefficients h_k; some root lies within n |P/P'| of lam, so
      n (n eps H(lam) + |P(lam)|) must stay within _TOP_EIG_RTOL lam P'(lam).
      This rejects a root the iteration has not reached, and a root of
      a tie or near-tie, which the polynomial resolves to about sqrt(eps).
    - Top root: any other root leaves lam^n of the top one in p_n - lam^n,
      so that must stay below (1 - 1e-6) lam^n.  Newton's iteration from
      above reaches a lower root only across a top pair that rounding made
      complex, and the residual has rejected each such row seen; this test
      does not rest on that.
    """
    n = len(h) - 1
    rounding = n * np.finfo(float).eps * _monic_horner(h, lam)[0]
    power = lam ** n
    return ((n * (rounding + np.abs(p)) <= _TOP_EIG_RTOL * lam * dp)
            & (lam > 0) & (p_n - power <= (1.0 - 1e-6) * power))


def _monic_horner(c, x: np.ndarray):
    """(P(x), P'(x)) for P(x) = x^n + c[1] x^(n-1) + ... + c[n]."""
    p, dp = x + c[1], 1.0
    for ck in c[2:]:
        dp = dp * x + p
        p = p * x + ck
    return p, dp


def _coefficients(method: str, ctx: _PrecoderContext, g: np.ndarray,
                  est_noise: Optional[np.ndarray]) -> np.ndarray:
    """Unit-norm weights (count, d) on the span from g = h @ span."""
    if method in _COHERENT:
        # dominant right singular vector (under a tie, any of the tied space)
        return np.linalg.eigh(g.conj().swapaxes(1, 2) @ g)[1][:, :, -1]
    if method == "strongest_sv_inst":
        return np.eye(g.shape[2])[_strongest_column(ctx, g, est_noise)]
    return np.ones((g.shape[0], 1))


def _strongest_column(ctx: _PrecoderContext, g: np.ndarray,
                      est_noise: Optional[np.ndarray]) -> np.ndarray:
    """strongest_sv_inst's pick per row: the span column of g = h @ span
    with the largest |u_max^H g|, after the estimation noise if any."""
    c = np.einsum("i,kid->kd", ctx.u_max.conj(), g)
    if est_noise is not None:
        c = c + est_noise
    return np.argmax(np.abs(c), axis=1)


def _batched_precoders(method: str, ctx: _PrecoderContext, h: np.ndarray) -> np.ndarray:
    """Unit-norm weights per realization from exact CSI, shape (count, M)."""
    span = ctx.spans[method]
    return _coefficients(method, ctx, h @ span, None) @ span.T


def build_precoder(method: str, own_cov: CovariancePair,
                   other_cov: CovariancePair,
                   csi: Optional[np.ndarray] = None) -> Precoder:
    """Beamforming weights for one terminal.

    Every zero-forcing method projects the interferer's transmit support
    away first; interference_free skips the projection.  csi (the own
    channel, N x M) is required for all_sv_coh, strongest_sv_inst, and
    interference_free; the purely statistical methods ignore it.  The CSI
    is taken as exact; evaluate models estimation noise.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    ctx = _PrecoderContext(own_cov, None if method == "interference_free" else other_cov)
    span = ctx.spans[method]
    if method not in _NEEDS_CSI:
        return Precoder(weights=span[:, 0], method=method)
    if csi is None:
        raise ValueError(f"method {method!r} needs instantaneous CSI")
    f = _batched_precoders(method, ctx, np.asarray(csi)[None, :, :])[0]
    return Precoder(weights=f, method=method)


@dataclass(frozen=True, eq=False)
class MethodResult:
    """Per-method Monte-Carlo outcome for the observed terminal.

    sinr holds the per-trial SINRs and sinr_mean their mean as an Estimate.
    mean_per is the mean per-attempt PER, a bare float: at the PERs of
    interest its squares underflow (below about 1e-154), so no SE is formed.
    """

    method: str
    sinr: np.ndarray
    sinr_mean: Estimate
    mean_per: float
    per_slot: np.ndarray


@dataclass(frozen=True, eq=False)
class MimoEvaluation:
    """evaluate's outcome: a MethodResult per evaluated method."""

    results: dict


def _per_attempt(sinr: np.ndarray, payload_bits: int) -> np.ndarray:
    pb = q_function(np.sqrt(2.0 * sinr))
    # pb <= 1/2 because sinr >= 0, so log1p(-pb) is finite
    return -np.expm1(payload_bits * np.log1p(-pb))


def evaluate(
    spec: ClusterChannelSpec,
    methods: Sequence[str],
    rho_db: float,
    multiplexing: str,
    mc: MonteCarloConfig,
    *,
    payload_bits: int = 100,
    slots: int = 10,
    estimation_noise_std: float = 0.0,
) -> MimoEvaluation:
    """Monte-Carlo SINR and PER-vs-slot for terminal 0 under each method.

    Spatial multiplexing splits the total power equally between the two
    simultaneously served users; time multiplexing gives the active user
    full power but only every other slot.  The zero-forcing methods null
    the other user's beam from covariance alone, so the SINR carries no
    cross interference (zero by construction, see the module docstring);
    interference_free skips the nulling and, as a genie bound, counts no
    interference either.  Uncoded BPSK over payload_bits gives the
    per-attempt PER, and slots multiply independent delivery opportunities
    (DEFAULT_ATTEMPTS_PER_SLOT: two per slot for methods that skip full
    CSI training).  Each block projects its path gains on every method's
    span in one stacked product, in chunks of rows whose projections hold
    _PROJECT_ELEMENTS values; terminal 1's gains are drawn only where the
    estimation noise follows them in the stream.  The blocks run on the
    calling thread, and no BLAS call starts a thread pool.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError("methods must be a nonempty sequence of method names, got ()")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ValueError(f"methods must name each method once, got {m!r} twice")
    if multiplexing not in ("space", "time"):
        raise ValueError(f"multiplexing must be 'space' or 'time', got {multiplexing!r}")
    rho_db = check_real("rho_db", rho_db)
    try:
        total_power = 10.0 ** (rho_db / 10.0)
    except OverflowError:
        total_power = math.inf
    spatial = multiplexing == "space"
    user_power = total_power / 2.0 if spatial else total_power
    # a subnormal power keeps few bits, and 0 leaves the SINR nothing to scale
    if not (math.isfinite(rho_db) and sys.float_info.min <= user_power < math.inf):
        raise ValueError(f"rho_db must be finite with a finite, normal linear power "
                         f"per user, got {rho_db!r}")
    payload_bits = check_count("payload_bits", payload_bits)
    slots = check_count("slots", slots)
    estimation_noise_std = check_real("estimation_noise_std", estimation_noise_std)
    check_nonnegative("estimation_noise_std", estimation_noise_std)

    covs = (covariance(spec, 0), covariance(spec, 1))
    # terminal 1 enters no SINR, but the pairing still needs a zero-forcing
    # beam for it: reject a spec whose terminal 1 support lies in terminal
    # 0's span, as _PrecoderContext does for terminal 0
    _projected_support(covs[1], covs[0])
    # built once, reused per block; terminal 1 enters only through the
    # projection, so it needs no context and no gain map of its own
    ctx = _PrecoderContext(covs[0], covs[1])
    paths = _steering_factors(spec, 0)
    gain_scale = np.sqrt(paths[2] / 2.0)
    other_scale = np.sqrt(np.asarray(spec.clusters[1].powers) / 2.0)
    # every method's gain map side by side, C-contiguous: one stacked
    # product projects a row on all spans; edges[col] bound its columns
    maps = [_gain_map(paths, ctx.spans[m]) for m in methods]
    gain_map = np.concatenate(maps, axis=1)
    edges = np.cumsum([0] + [w.shape[1] for w in maps])
    chunk = max(1, _PROJECT_ELEMENTS // gain_map.shape[1])
    n_rx = spec.rx_antennas
    noise_scale = np.full(ctx.spans["strongest_sv_inst"].shape[1],
                          estimation_noise_std / math.sqrt(2.0))

    n_methods = len(methods)
    needs_inst_noise = estimation_noise_std > 0.0 and "strongest_sv_inst" in methods

    def block_fn(rng: np.random.Generator, start: int, count: int):
        # the draw order below is the evaluation stream's layout: in space
        # multiplexing terminal 1's gains come between terminal 0's and the
        # estimation noise.  No SINR reads them, so they are drawn only to
        # keep the noise in its place; with nothing drawn after them,
        # skipping them changes no value
        a1 = _complex_gaussian(rng, count, gain_scale)
        est = None
        if needs_inst_noise:
            if spatial:
                _complex_gaussian(rng, count, other_scale)
            est = _complex_gaussian(rng, count, noise_scale)
        sinr = np.empty((count, n_methods))
        for lo in range(0, count, chunk):
            rows = slice(lo, lo + chunk)
            g_all = _project(a1[rows], gain_map, 1)[:, 0]
            est_rows = None if est is None else est[rows]
            for col, method in enumerate(methods):
                g1 = g_all[:, edges[col]:edges[col + 1]].reshape(
                    g_all.shape[0], n_rx, -1)
                if method in _MATCHED_RX:
                    # the matched filter collects sigma_max^2 of g1: on the
                    # dominant pair when coherent, ||g1||^2 for one column
                    sig = _top_singular(g1)
                else:
                    # u_max's projection of the picked span column (the
                    # strongest estimated one, or strongest_sv_av's only one)
                    pick = (_strongest_column(ctx, g1, est_rows)
                            if method == "strongest_sv_inst" else 0)
                    # the picked columns copied into contiguous rows: np.sum
                    # adds a contiguous axis in pairs and a strided one in
                    # sequence, so the order would otherwise depend on d
                    h = g1[np.arange(g1.shape[0]), :, pick]
                    sig = np.abs(np.sum(ctx.u_max.conj() * h, axis=1)) ** 2
                # the zero-forcing cross term H_0 @ span_1 is zero by
                # construction, so no SINR carries an interference term
                sinr[rows, col] = user_power * sig
        return (sinr,)

    (sinr_all,) = collect_monte_carlo(mc.trials, _EVAL_BLOCK, mc.stream(_EVAL_TAG, 0),
                                      block_fn)

    k = mc.trials
    results = {}
    slot_axis = np.arange(1, slots + 1)
    for col, method in enumerate(methods):
        s = sinr_all[:, col]
        # squares about user_power, in its unit, so they stay normal numbers
        sinr_mean = Estimate.from_sums(s.sum(), Estimate.total_dev(s, user_power), k,
                                       unit=user_power)
        per = _per_attempt(s, payload_bits)
        mean_per = float(per.mean())
        active = slot_axis if spatial else np.ceil(slot_axis / 2.0)
        attempts = DEFAULT_ATTEMPTS_PER_SLOT[method] * active
        per_slot = np.power(mean_per, attempts)
        results[method] = MethodResult(
            method=method,
            sinr=s,
            sinr_mean=sinr_mean,
            mean_per=mean_per,
            per_slot=per_slot,
        )
    return MimoEvaluation(results)

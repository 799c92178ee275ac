"""Covariance-based zero-forcing beamforming for two clustered terminals.

A large base-station array serves two terminals whose multipath lives in
narrow angular clusters, so each terminal's transmit covariance has low
rank.  The long-term structure alone pins down the zero-forcing part of
the precoder: projecting away the interferer's covariance support nulls
the cross channel for every fading realization, no instantaneous cross-CSI
needed.  What remains is how to spend the in-cluster degrees of freedom,
and that is where the methods differ:

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
gains alpha: evaluate builds each span's map from alpha once per call, so a
block's projection is one GEMM, and it never forms a channel matrix or a
full precoder per realization.  The dominant singular pair comes from the
top eigenpair of the smaller Gram matrix (g g^H or g^H g, min(N, d)
square); the coherent methods need only its eigenvalue sigma_max^2 and, for
the matched filter, the left vector, so evaluate never forms their
weights.  Blocks run on the calling thread: a block is a few milliseconds
of small batched LAPACK calls, too little to pay for a thread pool.

Receivers: methods transmitting across all eigenvectors use a matched
filter on the aggregate effective channel; the strongest-vector methods
project on the dominant receive eigenvector.  Methods without full CSI
spend half the training, so they fit two packets per slot.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .simcore import (
    MonteCarloConfig,
    SeededStream,
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


def ula_steering(angles_deg, n_antennas: int) -> np.ndarray:
    """Unit-norm steering columns of a half-wavelength ULA, one per angle."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
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
        if any(p <= 0 for p in pw):
            raise ValueError("path powers must be positive")
        object.__setattr__(self, "departure_deg", dep)
        object.__setattr__(self, "arrival_deg", arr)
        object.__setattr__(self, "powers", pw)

    @property
    def n_paths(self) -> int:
        return len(self.powers)

    @property
    def total_power(self) -> float:
        return float(sum(self.powers))


@dataclass(frozen=True)
class ClusterChannelSpec:
    """Two-terminal downlink: M-antenna transmitter, N-antenna terminals."""

    tx_antennas: int
    rx_antennas: int
    clusters: tuple

    def __post_init__(self):
        for name in ("tx_antennas", "rx_antennas"):
            n = getattr(self, name)
            if not isinstance(n, numbers.Integral) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
            object.__setattr__(self, name, int(n))
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
    normalize_power: bool = True,
    seed: int = 1,
) -> ClusterChannelSpec:
    """Draw a two-terminal scenario: angles uniform within each cluster
    spread, powers decaying exponentially over span_db (strongest first).

    arrival_spread_deg defaults to spread_deg; setting it wider than the
    departure spread models terminals in rich local scattering seen through
    a narrow departure sector.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    arr_spread = spread_deg if arrival_spread_deg is None else arrival_spread_deg
    if spread_deg < 0 or arr_spread < 0 or span_db < 0:
        raise ValueError("spreads and span_db must be nonnegative")
    rng = SeededStream(seed).derive(_SCENARIO_TAG).generator()
    decay = np.power(10.0, -span_db / 10.0 * np.arange(paths) / max(paths - 1, 1))
    if normalize_power:
        decay = decay / decay.sum()
    clusters = []
    for dep_c, arr_c in zip(departure_centers_deg, arrival_centers_deg):
        dep = dep_c + spread_deg * (rng.random(paths) - 0.5)
        arr = arr_c + arr_spread * (rng.random(paths) - 0.5)
        clusters.append(PathCluster(tuple(dep), tuple(arr), tuple(decay)))
    return ClusterChannelSpec(tx_antennas, rx_antennas, tuple(clusters))


@dataclass(frozen=True, eq=False)
class CovariancePair:
    """Transmit/receive covariance of one terminal with eigenstructure.

    Eigenvalues are descending; tx_rank counts the numerically nonzero
    transmit eigenvalues and tx_support is the matching orthonormal basis,
    computed from the power-weighted steering matrix so the span stays
    exact even when the covariance eigenproblem is ill conditioned.
    """

    r_tx: np.ndarray
    r_rx: np.ndarray
    tx_eigvals: np.ndarray
    tx_eigvecs: np.ndarray
    rx_eigvals: np.ndarray
    rx_eigvecs: np.ndarray
    tx_rank: int

    @property
    def tx_support(self) -> np.ndarray:
        return self.tx_eigvecs[:, : self.tx_rank]

    @property
    def v_max(self) -> np.ndarray:
        return self.tx_eigvecs[:, 0]

    @property
    def u_max(self) -> np.ndarray:
        return self.rx_eigvecs[:, 0]


def _eig_from_weighted(a: np.ndarray, dim: int):
    """Eigenstructure of a*a^H from the thin factor a (dim x paths)."""
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    svals = np.zeros(dim)
    svals[: s.size] = s
    rank = int(np.count_nonzero(s > s[0] * max(a.shape) * np.finfo(float).eps)) if s.size else 0
    return svals ** 2, u, max(rank, 1)


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
    tx_vals, tx_vecs, tx_rank = _eig_from_weighted(a_tx, spec.tx_antennas)
    rx_vals, rx_vecs, _ = _eig_from_weighted(a_rx, spec.rx_antennas)
    return CovariancePair(
        r_tx=a_tx @ a_tx.conj().T,
        r_rx=a_rx @ a_rx.conj().T,
        tx_eigvals=tx_vals,
        tx_eigvecs=tx_vecs,
        rx_eigvals=rx_vals,
        rx_eigvecs=rx_vecs,
        tx_rank=tx_rank,
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
    """H_k @ span for every row alpha_k, (count, N, d), as one GEMM."""
    return (alpha @ gain_map).reshape(alpha.shape[0], n_rx, -1)


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
                         mc: MonteCarloConfig, workers: int = 1):
    """Monte-Carlo estimates of (R_tx, R_rx) for convergence checks."""
    def block_fn(rng, start, count):
        h = draw_channels(spec, terminal, count, rng)
        r_tx = np.einsum("kij,kil->jl", h.conj(), h)
        r_rx = np.einsum("kij,klj->il", h, h.conj())
        return r_tx, r_rx

    stream = SeededStream(mc.master_seed).derive(_EVAL_TAG, terminal, 1)
    r_tx_sum, r_rx_sum = run_monte_carlo(
        mc.trials, _EVAL_BLOCK, stream, block_fn, workers=workers)
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


class _PrecoderContext:
    """Static per-terminal quantities shared by every realization.

    spans[method] (M x d) is the fixed part of the method's precoder
    span @ c.  All but interference_free's lie in the own transmit support
    projected away from the interferer's (None skips the projection).
    """

    def __init__(self, own: CovariancePair, other: Optional[CovariancePair]):
        self.u_max = own.u_max
        v = own.tx_support
        lam = own.tx_eigvals[: own.tx_rank]
        projected = v
        if other is not None:
            b = other.tx_support
            projected = v - b @ (b.conj().T @ v)
        norms = np.linalg.norm(projected, axis=0)
        keep = norms > 1e-12
        if not np.any(keep):
            raise ValueError(
                "own covariance support lies entirely in the interferer's span")
        # per-eigenvector unit directions (strongest-SV selection)
        directions = projected[:, keep] / norms[keep]
        # orthonormal basis of the projected subspace (coherent combining)
        _, q, r = _eig_from_weighted(projected[:, keep], v.shape[0])
        # fixed non-coherent superposition, sqrt(eigenvalue) amplitudes
        f = projected[:, keep] @ np.sqrt(lam[keep])
        self.spans = {
            "interference_free": v,
            "all_sv_coh": q[:, :r],
            "strongest_sv_inst": directions,
            "all_sv_ncoh": (f / np.linalg.norm(f))[:, None],
            "strongest_sv_av": directions[:, :1],
        }


def _top_singular(g: np.ndarray, side: Optional[str] = None):
    """sigma_max^2 of g and, if side is 'left' or 'right', its unit
    singular vector on that side, batched.

    g has shape (count, N, d); returns (lam (count,), vector or None), the
    vector of shape (count, N) on the left or (count, d) on the right.
    Only the smaller Gram matrix is decomposed: g g^H when N <= d, else
    g^H g.  The other side follows as g^H u / ||g^H u|| or g c / ||g c||.
    Under a tie any unit vector of the tied singular subspace is returned.
    """
    gh = g.conj().swapaxes(1, 2)
    on_left = g.shape[1] <= g.shape[2]
    a, b = (g, gh) if on_left else (gh, g)
    gram = a @ b
    if gram.shape[1] == 1:
        lam, vec = gram[:, 0, 0].real, np.ones((g.shape[0], 1))
    elif side is None:
        return np.linalg.eigvalsh(gram)[:, -1], None
    else:
        w, v = np.linalg.eigh(gram)
        lam, vec = w[:, -1], v[:, :, -1]
    if side is None:
        return lam, None
    if on_left == (side == "left"):
        return lam, vec
    x = (b @ vec[:, :, None])[:, :, 0]
    return lam, x / np.linalg.norm(x, axis=1, keepdims=True)


def _coefficients(method: str, ctx: _PrecoderContext, g: np.ndarray,
                  est_noise: Optional[np.ndarray]) -> np.ndarray:
    """Unit-norm weights (count, d) on the span from g = h @ span."""
    if method in _COHERENT:
        return _top_singular(g, "right")[1]
    if method == "strongest_sv_inst":
        c = np.einsum("i,kid->kd", ctx.u_max.conj(), g)
        if est_noise is not None:
            c = c + est_noise
        return np.eye(g.shape[2])[np.argmax(np.abs(c), axis=1)]
    return np.ones((g.shape[0], 1))


def _batched_precoders(method: str, ctx: _PrecoderContext, h: np.ndarray,
                       est_noise: Optional[np.ndarray]) -> np.ndarray:
    """Unit-norm weights per realization, shape (count, M)."""
    span = ctx.spans[method]
    return _coefficients(method, ctx, h @ span, est_noise) @ span.T


def _check_noise_std(std: float) -> None:
    if not (math.isfinite(std) and std >= 0.0):
        raise ValueError(f"estimation_noise_std must be finite and >= 0, got {std}")


def build_precoder(method: str, own_cov: CovariancePair,
                   other_cov: CovariancePair,
                   csi: Optional[np.ndarray] = None,
                   estimation_noise_std: float = 0.0,
                   rng: Optional[np.random.Generator] = None) -> Precoder:
    """Beamforming weights for one terminal.

    Every zero-forcing method projects the interferer's transmit support
    away first; interference_free skips the projection.  csi (the own
    channel, N x M) is required for all_sv_coh, strongest_sv_inst, and
    interference_free; the purely statistical methods ignore it.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _check_noise_std(estimation_noise_std)
    ctx = _PrecoderContext(own_cov, None if method == "interference_free" else other_cov)
    span = ctx.spans[method]
    if method not in _NEEDS_CSI:
        return Precoder(weights=span[:, 0], method=method)
    if csi is None:
        raise ValueError(f"method {method!r} needs instantaneous CSI")
    noise = None
    if method == "strongest_sv_inst" and estimation_noise_std > 0.0:
        if rng is None:
            raise ValueError("estimation noise requires an rng")
        noise = _complex_gaussian(
            rng, 1, np.full(span.shape[1], estimation_noise_std / math.sqrt(2.0)))
    f = _batched_precoders(method, ctx, np.asarray(csi)[None, :, :], noise)[0]
    return Precoder(weights=f, method=method)


@dataclass(frozen=True, eq=False)
class MethodResult:
    """Per-method Monte-Carlo outcome for the observed terminal."""

    method: str
    sinr: np.ndarray
    mean_sinr: float
    sinr_ci: tuple
    mean_per: float
    per_slot: np.ndarray


@dataclass(frozen=True, eq=False)
class MimoEvaluation:
    spec: ClusterChannelSpec
    rho_db: float
    multiplexing: str
    payload_bits: int
    slots: int
    results: dict = field(repr=False)


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
    attempts_per_slot: Optional[dict] = None,
    estimation_noise_std: float = 0.0,
) -> MimoEvaluation:
    """Monte-Carlo SINR and PER-vs-slot for terminal 0 under each method.

    Spatial multiplexing splits the total power equally between the two
    simultaneously served users and keeps the (nulled) cross interference
    in the SINR; time multiplexing gives the active user full power but
    only every other slot.  Uncoded BPSK over payload_bits gives the
    per-attempt PER, and slots multiply independent delivery opportunities
    (two per slot for methods that skip full CSI training).  The blocks
    run on the calling thread.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if multiplexing not in ("space", "time"):
        raise ValueError(f"multiplexing must be 'space' or 'time', got {multiplexing!r}")
    try:
        total_power = 10.0 ** (rho_db / 10.0)
    except OverflowError:
        total_power = math.inf
    if not (math.isfinite(rho_db) and math.isfinite(total_power)):
        raise ValueError(f"rho_db must be finite with a finite linear power, "
                         f"got {rho_db!r}")
    for name, n in (("payload_bits", payload_bits), ("slots", slots)):
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    _check_noise_std(estimation_noise_std)
    aps = dict(DEFAULT_ATTEMPTS_PER_SLOT)
    for m, n in (attempts_per_slot or {}).items():
        if m not in METHODS or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError("attempts_per_slot maps known methods to integers "
                             f">= 1, got {m!r}: {n!r}")
        aps[m] = n

    covs = (covariance(spec, 0), covariance(spec, 1))
    # built once, reused per block; terminal 1 serves only the cross term
    ctx = (_PrecoderContext(covs[0], covs[1]), _PrecoderContext(covs[1], covs[0]))
    paths = (_steering_factors(spec, 0), _steering_factors(spec, 1))
    gain_scale = [np.sqrt(p[2] / 2.0) for p in paths]
    # per method: terminal 0 on its span, terminal 1 on its span, and the
    # cross term (terminal 0's paths on terminal 1's span)
    maps = {m: (_gain_map(paths[0], ctx[0].spans[m]),
                _gain_map(paths[1], ctx[1].spans[m]),
                _gain_map(paths[0], ctx[1].spans[m])) for m in methods}
    n_rx = spec.rx_antennas
    noise_scale = np.full(ctx[0].spans["strongest_sv_inst"].shape[1],
                          estimation_noise_std / math.sqrt(2.0))

    spatial = multiplexing == "space"
    user_power = total_power / 2.0 if spatial else total_power
    n_methods = len(methods)
    needs_inst_noise = estimation_noise_std > 0.0 and "strongest_sv_inst" in methods

    def block_fn(rng: np.random.Generator, start: int, count: int):
        # the draw order below is the evaluation stream's layout
        a1 = _complex_gaussian(rng, count, gain_scale[0])
        a2 = _complex_gaussian(rng, count, gain_scale[1]) if spatial else None
        est = _complex_gaussian(rng, count, noise_scale) if needs_inst_noise else None
        sinr = np.empty((count, n_methods))
        for col, method in enumerate(methods):
            own, other, cross_map = maps[method]
            g1 = _project(a1, own, n_rx)
            if method in _COHERENT:
                # the matched filter u on the dominant pair collects
                # sigma_max^2; interference_free needs no filter
                sig, r = _top_singular(
                    g1, "left" if method == "all_sv_coh" else None)
            else:
                c1 = _coefficients(method, ctx[0], g1,
                                   est if method == "strongest_sv_inst" else None)
                heff = np.einsum("kid,kd->ki", g1, c1)
                r = (heff / np.linalg.norm(heff, axis=1, keepdims=True)
                     if method in _MATCHED_RX else ctx[0].u_max)
                sig = np.abs(np.sum(r.conj() * heff, axis=1)) ** 2
            interf = 0.0
            if spatial and method != "interference_free":
                c2 = _coefficients(method, ctx[1], _project(a2, other, n_rx), None)
                cross = np.einsum("kid,kd->ki", _project(a1, cross_map, n_rx), c2)
                interf = np.abs(np.sum(r.conj() * cross, axis=1)) ** 2
            sinr[:, col] = user_power * sig / (user_power * interf + 1.0)
        return (sinr,)

    stream = SeededStream(mc.master_seed).derive(_EVAL_TAG, 0)
    (sinr_all,) = collect_monte_carlo(mc.trials, _EVAL_BLOCK, stream, block_fn)

    k = mc.trials
    results = {}
    slot_axis = np.arange(1, slots + 1)
    for col, method in enumerate(methods):
        s = sinr_all[:, col]
        mean = float(s.mean())
        se = float(s.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0
        per = _per_attempt(s, payload_bits)
        mean_per = float(per.mean())
        active = slot_axis if spatial else np.ceil(slot_axis / 2.0)
        attempts = aps[method] * active
        per_slot = np.power(mean_per, attempts)
        results[method] = MethodResult(
            method=method,
            sinr=s,
            mean_sinr=mean,
            sinr_ci=(mean - 1.96 * se, mean + 1.96 * se),
            mean_per=mean_per,
            per_slot=per_slot,
        )
    return MimoEvaluation(
        spec=spec,
        rho_db=rho_db,
        multiplexing=multiplexing,
        payload_bits=payload_bits,
        slots=slots,
        results=results,
    )

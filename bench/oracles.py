"""Independent correctness oracles and the known-fault ledger.

Every oracle recomputes a quantity apart from urllckit (mpmath, exact
fractions, exact integer counting, or a property the method must have) and
returns a list of `Item` verdicts.  A failed item either carries the tag of
a known fault, when its discrepancy lies inside that fault's rounding
envelope, or the tag `unexpected`, which makes the whole run incorrect.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp
import numpy as np
from scipy import special

U = 2.0 ** -53  # unit roundoff of IEEE double

# Known faults of the program; a fix shows as its count dropping to zero.
FAULTS = {
    "a": "fbl.min_bandwidth tests success >= 1 - eps (eps <= 1e-12 misses the "
         "target or minimality)",
    "b": "access.scheme_error computes 1 - prod(1 - eps) (0.0 at 1e-17 per step)",
    "c": "multiconn.reliability forms miss products from reliabilities",
    "d": "ratesel.ar_epsilon forms (1-eps)**(-1/n) - 1 by subtraction",
}
UNEXPECTED = "unexpected"

# two-sided tail mass of a 4-sigma Gaussian interval
ALPHA_4SIGMA = math.erfc(4.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class Item:
    """One checked output value: passed, or failed under a fault tag."""

    name: str
    ok: bool
    fault: Optional[str] = None
    detail: str = ""


def passed(name: str) -> Item:
    return Item(name, True)


def failed(name: str, detail: str, fault: Optional[str] = None) -> Item:
    return Item(name, False, fault or UNEXPECTED, detail)


def check(name: str, ok: bool, detail: str = "") -> Item:
    return passed(name) if ok else failed(name, detail)


def rel_err(got: float, want) -> float:
    want = float(want)
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


# ---- fbl: normal approximation in mpmath -----------------------------------

def fbl_error(n: float, gamma0: float, b0_hz: float, latency_s: float,
              data_bits: int, metadata_bits: int, mode: str):
    """Packet error at n real channel uses, evaluated at 40 digits."""
    with mp.workdps(40):
        n = mp.mpf(n)
        g = mp.mpf(gamma0) * 2 * mp.mpf(b0_hz) * mp.mpf(latency_s) / n
        c = mp.log(1 + g) / (2 * mp.log(2))
        v = g * (g + 2) / (2 * (g + 1) ** 2) / mp.log(2) ** 2

        def err(uses, bits):
            x = (uses * c - bits + mp.log(uses, 2) / 2) / mp.sqrt(uses * v)
            return mp.erfc(x / mp.sqrt(2)) / 2

        if mode == "joint":
            return err(n, data_bits + metadata_bits)
        e_m, e_d = err(n / 2, metadata_bits), err(n / 2, data_bits)
        return e_m + e_d - e_m * e_d


def _fbl_min_error_float(gamma0, b0_hz, latency_s, data_bits, metadata_bits,
                         mode, n_max):
    """Smallest error over a 65537-point geometric grid of n in [2, n_max]."""
    n = np.geomspace(2.0, float(n_max), 65537)
    g = gamma0 * 2.0 * b0_hz * latency_s / n
    c = 0.5 * np.log2(1.0 + g)
    v = g * (g + 2.0) / (2.0 * (g + 1.0) ** 2) / math.log(2.0) ** 2

    def err(uses, bits):
        return np.exp(special.log_ndtr(
            -(uses * c - bits + 0.5 * np.log2(uses)) / np.sqrt(uses * v)))

    if mode == "joint":
        e = err(n, data_bits + metadata_bits)
    else:
        e_m, e_d = err(n / 2, metadata_bits), err(n / 2, data_bits)
        e = e_m + e_d - e_m * e_d
    return float(e.min())


FBL_CEILING_GUARD = 0.02  # documented 2% guard band below the capacity ceiling
FBL_N_MAX = 2 ** 22


def check_min_bandwidth(name: str, b_hz: float, eps: float, gamma0: float,
                        b0_hz: float, latency_s: float, data_bits: int,
                        metadata_bits: int, mode: str) -> Item:
    """A finite B must meet eps at B(1+1e-5) and miss it at B(1-1e-5)."""
    args = (gamma0, b0_hz, latency_s, data_bits, metadata_bits, mode)
    if math.isinf(b_hz):
        ceiling = gamma0 * b0_hz * latency_s / math.log(2.0)
        required = data_bits + metadata_bits if mode == "joint" else \
            max(data_bits, metadata_bits)
        available = ceiling if mode == "joint" else ceiling / 2.0
        if required >= available * (1.0 + FBL_CEILING_GUARD):
            return passed(name)
        e_min = _fbl_min_error_float(*args, FBL_N_MAX)
        return check(name, e_min > eps,
                     f"inf returned but error {e_min:.3g} <= eps {eps:g} "
                     f"is reachable with n <= {FBL_N_MAX}")
    e_hi = fbl_error(2.0 * b_hz * (1.0 + 1e-5) * latency_s, *args)
    e_lo = fbl_error(2.0 * b_hz * (1.0 - 1e-5) * latency_s, *args)
    if e_hi <= eps and e_lo > eps:
        return passed(name)
    # the program compares 1 - error with 1 - eps in double precision, so
    # near the crossing it cannot resolve error differences below ~U
    miss = e_hi if e_hi > eps else e_lo
    side = "misses eps at B(1+1e-5)" if e_hi > eps else "not minimal at B(1-1e-5)"
    detail = f"{side}: error {mp.nstr(miss, 6)} vs eps {eps:g}"
    fault = "a" if abs(miss - eps) <= 8 * U else None
    return failed(name, detail, fault)


# ---- access and multiconn: exact fractions ---------------------------------

ACCESS_STEPS = {
    "static": ("sync", "data", "ack"),
    "four_step": ("sync", "request", "grant", "data", "ack"),
    "three_step": ("sync", "grant", "data", "ack"),
    "grant_free": ("sync", "data", "ack"),
}


def access_error_exact(scheme: str, eps: dict) -> Fraction:
    prod = Fraction(1)
    for step in ACCESS_STEPS[scheme]:
        prod *= 1 - Fraction(eps[step])
    return 1 - prod


def check_access(name: str, scheme: str, eps: dict, overall: float,
                 residual: float, max_attempts: int, cdf_rows: list,
                 attempt_latency_s: float) -> list:
    """Overall error, residual error and the retry staircase, to 1e-9."""
    err = access_error_exact(scheme, eps)
    items = []
    # the program's attempt error is at most a few roundings of 1 - tiny
    bad = rel_err(overall, err) > 1e-9
    items.append(passed(f"{name}/overall") if not bad else failed(
        f"{name}/overall", f"{overall!r} vs exact {float(err)!r}",
        "b" if abs(overall - err) <= 8 * U else None))
    exact_res = err ** max_attempts
    if rel_err(residual, exact_res) <= 1e-9:
        items.append(passed(f"{name}/residual"))
    else:
        implied = residual ** (1.0 / max_attempts)
        items.append(failed(
            f"{name}/residual", f"{residual!r} vs exact {float(exact_res)!r}",
            "b" if abs(implied - err) <= 8 * U else None))
    for k, t, r in cdf_rows:
        ok = rel_err(t, Fraction(attempt_latency_s) * k) <= 1e-9 and \
            rel_err(r, 1 - err ** k) <= 1e-9
        items.append(check(f"{name}/attempt{k}", ok,
                           f"deadline {t!r}, reliability {r!r}"))
    if len(cdf_rows) != max_attempts:
        items.append(failed(f"{name}/rows", f"{len(cdf_rows)} staircase rows"))
    return items


def multiconn_outage_exact(links, cores, r_far, arch: str,
                           vary: int, q) -> Fraction:
    links = [Fraction(v) for v in links]
    cores = [Fraction(v) for v in cores]
    links[vary] = 1 - Fraction(q)
    far = Fraction(r_far)
    if arch == "single":
        rel = links[0] * cores[0] * far
    elif arch == "dc":
        miss = Fraction(1)
        for rl in links:
            miss *= 1 - rl
        rel = (1 - miss) * cores[0] * far
    else:
        miss = Fraction(1)
        for rl, rc in zip(links, cores):
            miss *= 1 - rl * rc
        rel = (1 - miss) * far
    return 1 - rel


def check_multiconn_row(name: str, got: float, exact: Fraction) -> Item:
    if rel_err(got, exact) <= 1e-9:
        return passed(name)
    # forming 1 - r from reliabilities leaves an absolute error of a few U
    return failed(name, f"{got!r} vs exact {float(exact)!r}",
                  "c" if abs(got - exact) <= 16 * U else None)


# ---- ratesel back-off rules ------------------------------------------------

def ar_epsilon_exact(n: int, eps: float):
    with mp.workdps(50):
        e = mp.mpf(eps)
        return -mp.expm1(-n * mp.expm1(-mp.log1p(-e) / n))


def check_ar(name: str, n: int, eps: float, got: float) -> Item:
    exact = ar_epsilon_exact(n, eps)
    err = rel_err(got, exact)
    if err <= 1e-9:
        return passed(name)
    # (1-eps)**(-1/n) - 1 ~ eps/n carries an absolute error of ~2U
    return failed(name, f"{got!r} vs exact {mp.nstr(exact, 12)} "
                        f"({err:.2g} relative)",
                  "d" if err <= 8 * U * n / eps else None)


def pcr_violation(n: int, eps: float, eps_n):
    """P(conditional outage > eps) as the upper regularized gamma Q(n, x)."""
    with mp.workdps(40):
        x = n * mp.log1p(-mp.mpf(eps)) / mp.log1p(-mp.mpf(eps_n))
        return mp.gammainc(n, x, mp.inf, regularized=True)


def check_pcr(name: str, n: int, eps: float, xi: float, got: float) -> Item:
    """Violation <= xi at got, and the back-off is the largest such to 1e-9."""
    if not 0.0 < got <= eps:
        return failed(name, f"back-off {got!r} outside (0, eps]")
    feasible = pcr_violation(n, eps, got * (1 - 1e-9)) <= xi
    maximal = got == eps or pcr_violation(n, eps, got * (1 + 1e-9)) > xi
    return check(name, feasible and maximal,
                 f"back-off {got!r}: feasible={feasible}, maximal={maximal}")


def pcr_epsilon_closed(n: int, eps: float, xi: float) -> float:
    """Largest pcr back-off from the inverse upper gamma (scipy)."""
    x = special.gammainccinv(n, xi)
    return min(eps, -math.expm1(n * math.log1p(-eps) / x))


@functools.cache
def throughput_ratio_exact(n: int, eps: float, eps_n: float, theta: float) -> float:
    """E[log2(1 + th*t) exp(-th*t/theta)] / (R_eps (1-eps)), th ~ Gamma(n, theta/n).

    t = -ln(1 - eps_n) is the back-off threshold; the expectation is taken
    by mpmath quadrature over the scaled estimate u = th / theta.
    """
    with mp.workdps(25):
        t = -mp.log1p(-mp.mpf(eps_n))
        nn = mp.mpf(n)
        log_norm = nn * mp.log(nn) - mp.loggamma(nn)

        def integrand(u):
            if u == 0:
                return mp.mpf(0)
            dens = mp.exp(log_norm + (nn - 1) * mp.log(u) - nn * u)
            return mp.log(1 + theta * u * t, 2) * mp.exp(-u * t) * dens

        # breakpoints around the peak of the Gamma(n, 1/n) density
        sd = 1 / mp.sqrt(nn)
        pts = {mp.mpf(0), mp.inf} | {1 + k * sd for k in (-12, -6, -3, -1, 0, 1, 3, 6, 12, 40)
                                     if 1 + k * sd > 0}
        mean = mp.quad(integrand, sorted(pts))
        genie = mp.log(1 - theta * mp.log1p(-mp.mpf(eps)), 2) * (1 - mp.mpf(eps))
        return float(mean / genie)


def check_within_sigmas(name: str, got: float, want: float, sigma: float,
                        k: float = 4.0) -> Item:
    ok = sigma > 0 and abs(got - want) <= k * sigma
    return check(name, ok, f"{got!r} vs {want!r}: {abs(got - want) / sigma if sigma > 0 else math.inf:.2f} sigma")


def check_binomial(name: str, successes: int, trials: int, p: float) -> Item:
    """Exact two-sided binomial test at the 4-sigma Gaussian level.

    Used where the expected number of misses is a handful, so the normal
    approximation behind a plain 4-sigma interval would misjudge the tails.
    """
    misses = trials - successes
    q = max(1.0 - p, 0.0)
    lower = special.bdtr(misses, trials, q)
    upper = 1.0 if misses == 0 else special.bdtrc(misses - 1, trials, q)
    p_value = min(1.0, 2.0 * min(lower, upper))
    return check(name, p_value >= ALPHA_4SIGMA,
                 f"{misses} misses in {trials} at q = {q:.3g}: p-value {p_value:.2g}")


# ---- mimo ------------------------------------------------------------------

def ula(angles_deg, m: int) -> np.ndarray:
    """Half-wavelength ULA steering vectors, unit norm, one column per angle."""
    phase = np.pi * np.outer(np.arange(m), np.sin(np.radians(angles_deg)))
    return (np.cos(phase) + 1j * np.sin(phase)) / math.sqrt(m)


def tx_factor(departure_deg, powers, m: int) -> np.ndarray:
    """A with R_tx = A A^H; ||A^H f|| is the leakage of f into that terminal."""
    return ula(departure_deg, m) * np.sqrt(np.asarray(powers))


def ncoh_sinr_moments(f: np.ndarray, departure_deg, arrival_deg, powers,
                      tx_antennas: int, rx_antennas: int):
    """Mean and variance of ||H f||^2 for H = S_rx diag(alpha) S_tx^H.

    H f is circular complex Gaussian with covariance
    C = sum_p p_p |s_tx,p^H f|^2 s_rx,p s_rx,p^H, so the mean is tr C
    (= f^H R_tx f) and the variance tr C^2.
    """
    s_tx = ula(departure_deg, tx_antennas)
    s_rx = ula(arrival_deg, rx_antennas)
    w = np.asarray(powers) * np.abs(s_tx.conj().T @ f) ** 2
    c = (s_rx * w) @ s_rx.conj().T
    return float(np.trace(c).real), float(np.trace(c @ c).real)


# ---- framesync -------------------------------------------------------------

def _kmp_delta(bits: str):
    """Transition table of the prefix automaton over states 0..m."""
    m = len(bits)
    fail = [0] * (m + 1)
    k = 0
    for i in range(1, m):
        while k and bits[i] != bits[k]:
            k = fail[k]
        if bits[i] == bits[k]:
            k += 1
        fail[i + 1] = k
    delta = []
    for q in range(m + 1):
        row = []
        for b in "01":
            if q < m and bits[q] == b:
                row.append(q + 1)
            elif q == 0:
                row.append(0)
            else:
                row.append(delta[fail[q]][int(b)])
        delta.append(row)
    return delta


def occurrence_counts(bits: str, payload_bits: int) -> list:
    """Exact number of payloads giving each occurrence count (Python ints).

    Same model as the program's distribution: the automaton starts in the
    full-match state and every later completed match is counted.
    """
    m = len(bits)
    delta = _kmp_delta(bits)
    state = {m: [1]}
    for _ in range(payload_bits):
        nxt: dict = {}
        for q, counts in state.items():
            for b in (0, 1):
                t = delta[q][b]
                hit = 1 if t == m else 0
                row = nxt.setdefault(t, [])
                need = len(counts) + hit
                if len(row) < need:
                    row.extend([0] * (need - len(row)))
                for c, v in enumerate(counts):
                    if v:
                        row[c + hit] += v
        state = nxt
    total: list = []
    for counts in state.values():
        if len(total) < len(counts):
            total.extend([0] * (len(counts) - len(total)))
        for c, v in enumerate(counts):
            total[c] += v
    return total


def p_ub_list_exact(counts: list, payload_bits: int, list_len: int) -> Fraction:
    acc = Fraction(0)
    for i, v in enumerate(counts):
        if v:
            acc += Fraction(v) * (1 if i < list_len else Fraction(list_len, i + 1))
    return acc / (2 ** payload_bits)


def mean_count_closed(bits: str, payload_bits: int) -> Fraction:
    """(n-m+1) 2^-m plus 2^-j for every shift j whose overlap is a border."""
    m, n = len(bits), payload_bits
    full = max(n - m + 1, 0)
    mean = Fraction(full, 2 ** m)
    for j in range(1, min(m, n + 1)):
        if bits[j:] == bits[:m - j]:
            mean += Fraction(1, 2 ** j)
    return mean

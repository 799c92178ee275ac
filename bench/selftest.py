"""Self-test of the benchmark's oracles; needs no urllckit sources.

    python3 bench/selftest.py

For each known fault, the oracle must flag one value the program returned
at a fault point (recorded below) under that fault's tag, and pass the
exact value.  The exact-count DP and the closed-form mean count are checked
against brute-force enumeration, and the binomial test against one
plausible and one implausible count.  Exits 1 on the first failure.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as orc  # noqa: E402

# Values urllckit returned at each fault point when the fault was recorded.
FBL_1E17_HZ = 41776.37432671393        # min_bandwidth, 20 dB, 128+128 bits, joint
ACCESS_3X1E12 = 2.9999336348396355e-12  # scheme_error, static, 1e-12 per step
IFD_1E9 = 1.099120794378905e-14        # ifd outage, link outage 1e-9, cores 1-1e-10
AR_1E4_1E9 = 9.992007216634399e-10     # ar_epsilon(n=1e4, eps=1e-9)


def require(label: str, cond: bool, detail="") -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {label}: {detail}")
    print(f"ok  {label}")


def expect(label: str, item, ok: bool, fault=None) -> None:
    require(label, item.ok == ok and (fault is None or item.fault == fault), item)


def fbl_root(eps: float, gamma0: float, data_bits: int, meta_bits: int) -> float:
    """Bandwidth where the mpmath error falls through eps, by bisection."""
    lo, hi = 2e4, 2e5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        err = orc.fbl_error(2 * mid * 1e-3, gamma0, 1e5, 1e-3, data_bits, meta_bits,
                            "joint")
        lo, hi = (mid, hi) if err > eps else (lo, mid)
    return hi


def brute_counts(bits: str, payload: int) -> list:
    m = len(bits)
    counts = [0] * (payload + 1)
    for tail in itertools.product("01", repeat=payload):
        packet = bits + "".join(tail)
        counts[sum(packet[j:j + m] == bits for j in range(1, payload + 1))] += 1
    return counts


def main() -> None:
    args = (100.0, 1e5, 1e-3, 128, 128, "joint")
    expect("(a) fbl flags B at eps=1e-17",
           orc.check_min_bandwidth("a", FBL_1E17_HZ, 1e-17, *args), False, "a")
    expect("(a) fbl passes the mpmath root at eps=1e-5",
           orc.check_min_bandwidth("a", fbl_root(1e-5, 100.0, 128, 128), 1e-5, *args),
           True)

    eps = {"sync": 1e-12, "data": 1e-12, "ack": 1e-12}
    exact = float(orc.access_error_exact("static", eps))
    bad = orc.check_access("b", "static", eps, ACCESS_3X1E12, ACCESS_3X1E12 ** 10,
                           10, [], 1e-3)
    expect("(b) access flags 1 - prod(1 - eps) at 3 x 1e-12", bad[0], False, "b")
    good = orc.check_access("b", "static", eps, exact, exact ** 10, 10, [], 1e-3)
    expect("(b) access passes the exact error", good[0], True)

    want = orc.multiconn_outage_exact((0.99, 0.99999), (1 - 1e-10, 1 - 1e-10), 1.0,
                                      "ifd", 0, 1e-9)
    expect("(c) multiconn flags the ifd outage at 1e-9",
           orc.check_multiconn_row("c", IFD_1E9, want), False, "c")
    expect("(c) multiconn passes the exact outage",
           orc.check_multiconn_row("c", float(want), want), True)

    expect("(d) ar flags n=1e4, eps=1e-9", orc.check_ar("d", 10_000, 1e-9, AR_1E4_1E9),
           False, "d")
    expect("(d) ar passes the exact back-off",
           orc.check_ar("d", 10_000, 1e-9, float(orc.ar_epsilon_exact(10_000, 1e-9))),
           True)

    pcr = orc.pcr_epsilon_closed(100, 1e-3, 1e-3)
    expect("pcr passes the closed-form back-off",
           orc.check_pcr("pcr", 100, 1e-3, 1e-3, pcr), True)
    expect("pcr flags a back-off 1e-6 too large",
           orc.check_pcr("pcr", 100, 1e-3, 1e-3, pcr * (1 + 1e-6)), False)

    for bits in ("1", "10", "11", "101", "0110"):
        counts = brute_counts(bits, 9)
        dp = orc.occurrence_counts(bits, 9)
        dp += [0] * (len(counts) - len(dp))
        require(f"framesync DP matches enumeration for {bits}", dp == counts)
        mean = Fraction(sum(i * v for i, v in enumerate(counts)), 2 ** 9)
        require(f"framesync closed-form mean for {bits}",
                mean == orc.mean_count_closed(bits, 9))

    expect("binomial passes 1 miss in 1e5 at q=1e-5",
           orc.check_binomial("bin", 99_999, 100_000, 1 - 1e-5), True)
    expect("binomial flags 10 misses in 1e5 at q=1e-5",
           orc.check_binomial("bin", 99_990, 100_000, 1 - 1e-5), False)
    print("selftest passed")


if __name__ == "__main__":
    main()

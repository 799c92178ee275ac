"""Minimum bandwidth for a 1 ms, 1e-5 packet vs reference SNR.

Compares coding data and metadata together against giving each its own
half of the channel uses.  Points below the asymptotic-capacity ceiling
print as 'infeasible'.

Usage:
    python demos/bandwidth_vs_snr.py
"""

from __future__ import annotations

import math

import numpy as np

from urllckit.fbl import LinkBudget, PacketSpec, min_bandwidth

B0_HZ = 1e5
LATENCY_S = 1e-3
EPS = 1e-5
PKT = PacketSpec(data_bits=128, metadata_bits=128)
GAMMA0_DB = np.linspace(5.0, 40.0, 15)


def _fmt(b_hz: float) -> str:
    if b_hz == math.inf:
        return "infeasible"
    return f"{b_hz / 1e3:9.1f} kHz"


def main() -> None:
    print(f"packet: {PKT.data_bits}+{PKT.metadata_bits} bits, "
          f"latency {LATENCY_S * 1e3:.0f} ms, target error {EPS:g}")
    print(f"{'gamma0 [dB]':>11}  {'joint':>13}  {'separate':>13}")
    # one batched solve per mode covers the whole SNR grid
    budget = LinkBudget(10.0 ** (GAMMA0_DB / 10.0), B0_HZ, LATENCY_S)
    joint = min_bandwidth(budget, PKT, EPS, "joint")
    separate = min_bandwidth(budget, PKT, EPS, "separate")
    for g_db, bj, bs in zip(GAMMA0_DB, joint, separate):
        print(f"{g_db:11.1f}  {_fmt(bj):>13}  {_fmt(bs):>13}")
    print("\njoint encoding never needs more bandwidth, and the gap widens "
          "as the link budget tightens.")


if __name__ == "__main__":
    main()

"""Rate selection from n channel samples: how much back-off, at what cost.

With the channel law known only through n training samples, the rate must
back off from the eps-outage capacity.  'ar' keeps the average outage at
eps; 'pcr' additionally caps, with confidence 1 - xi, the probability that
the realized outage exceeds eps.

Usage:
    python demos/rate_backoff.py
"""

from __future__ import annotations

from urllckit.ratesel import (BackoffPolicy, RayleighScenario, ar_epsilon,
                              pcr_epsilon, throughput_ratio)
from urllckit.simcore import MonteCarloConfig

THETA = 10.0
EPS = 1e-3
XI = 1e-3
N_VALUES = (1, 10, 100, 1000)
# the throughput deficit shrinks like 1/n, so the Monte-Carlo comparison
# sticks to small n where it is resolvable at modest trial counts
MC_N_VALUES = (1, 3, 10)
TRIALS = 2_000_000


def main() -> None:
    print(f"mean SNR {THETA:g}, outage target {EPS:g}, confidence {1 - XI:g}")
    print(f"{'n':>6}  {'ar eps_n':>12}  {'pcr eps_n':>12}")
    for n in N_VALUES:
        print(f"{n:>6}  {ar_epsilon(n, EPS):12.5e}  "
              f"{pcr_epsilon(n, EPS, XI):12.5e}")
    print("\nar only controls the average outage, so its back-off sits just "
          "above eps; pcr backs off hard to make exceeding eps itself a "
          "1-in-1000 event, relaxing as evidence accumulates.")

    sc = RayleighScenario(THETA)
    print(f"\nthroughput relative to the genie rate ({TRIALS} trials):")
    print(f"{'n':>6}  {'ar ratio':>18}  {'pcr ratio':>18}")
    for n in MC_N_VALUES:
        res = {}
        for kind in ("ar", "pcr"):
            pol = BackoffPolicy(kind, EPS, XI if kind == "pcr" else None)
            res[kind] = throughput_ratio(sc, pol, n,
                                         MonteCarloConfig(TRIALS, master_seed=7),
                                         workers=4)
        ar, pcr = res["ar"].ratio, res["pcr"].ratio
        print(f"{n:>6}  {ar.mean:7.4f} ± {ar.ci()[1] - ar.mean:.4f}    "
              f"{pcr.mean:7.4f} ± {pcr.ci()[1] - pcr.mean:.4f}   ")
    print("\nboth converge to 1 as training grows; the confidence guarantee "
          "is what the pcr throughput gap pays for.")


if __name__ == "__main__":
    main()

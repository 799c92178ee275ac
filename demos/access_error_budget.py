"""Access-protocol error budgets and the retry latency staircase.

Usage:
    python demos/access_error_budget.py
"""

from __future__ import annotations

from urllckit.access import (AccessErrorProfile, RetransmissionModel,
                             scheme_error, scheme_steps, SCHEMES)

# every step at the same per-message error
PROFILE = AccessErrorProfile(eps_sync=1e-6, eps_request=1e-4, eps_grant=1e-4,
                             eps_data=1e-4, eps_ack=1e-4)


def main() -> None:
    print("per-step errors:", PROFILE)
    print(f"\n{'scheme':>11}  {'steps':>5}  {'overall error':>13}")
    for scheme in SCHEMES:
        err = scheme_error(scheme, PROFILE)
        print(f"{scheme:>11}  {len(scheme_steps(scheme)):>5}  {err:13.3e}")
    print("\nfewer handshake messages leave more of the error budget to the "
          "data transmission itself.")

    # four-step attempt error feeds the retry model
    model = RetransmissionModel(eps_attempt=scheme_error("four_step", PROFILE),
                                attempt_latency_s=1e-3, max_attempts=4)
    print(f"\nretries at {model.attempt_latency_s * 1e3:.0f} ms per attempt, "
          f"cap {model.max_attempts}:")
    for t, r in zip(model.attempt_times, model.attempt_reliabilities):
        print(f"  by {t * 1e3:4.0f} ms: reliability {r:.9f}")
    print(f"  residual error after the cap: {model.residual_error:.3e}")


if __name__ == "__main__":
    main()

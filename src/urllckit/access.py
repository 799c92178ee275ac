"""Access-protocol error budgets and retransmission latency profiles.

An access attempt is a chain of steps that must all succeed: synchronization,
optional grant signaling, data, and acknowledgment.  Scheduled (static)
access and grant-free access skip grant signaling entirely; four-step access
pays for both the grant request and the grant; three-step access folds the
request away.  The overall attempt error is the union of the independent
per-step errors, computed from the errors themselves (simcore.union_error),
and repeated attempts turn that into a staircase latency-reliability
profile whose residual error is the attempt error to the power of the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .simcore import check_count, check_positive, check_probability, union_error

__all__ = [
    "SCHEMES",
    "AccessErrorProfile",
    "scheme_steps",
    "scheme_error",
    "RetransmissionModel",
]

# step chains that must all succeed, per access scheme
_SCHEME_STEPS = {
    "static": ("sync", "data", "ack"),
    "four_step": ("sync", "request", "grant", "data", "ack"),
    "three_step": ("sync", "grant", "data", "ack"),
    "grant_free": ("sync", "data", "ack"),
}

SCHEMES = tuple(_SCHEME_STEPS)


@dataclass(frozen=True)
class AccessErrorProfile:
    """Per-step error probabilities, each in [0, 1]."""

    eps_sync: float = 0.0
    eps_request: float = 0.0
    eps_grant: float = 0.0
    eps_data: float = 0.0
    eps_ack: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            check_probability(f.name, getattr(self, f.name))

    def as_dict(self) -> dict:
        return {f.name.removeprefix("eps_"): getattr(self, f.name) for f in fields(self)}


def scheme_steps(scheme: str) -> tuple:
    if scheme not in _SCHEME_STEPS:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    return _SCHEME_STEPS[scheme]


def scheme_error(scheme: str, profile: AccessErrorProfile) -> float:
    """Overall attempt error: the union of the scheme's independent step errors."""
    eps = profile.as_dict()
    return union_error(*(eps[step] for step in scheme_steps(scheme)))


@dataclass(frozen=True, kw_only=True)
class RetransmissionModel:
    """Independent retries: per-attempt error, fixed attempt latency, cap.

    Every field is keyword-only, so a per-attempt success probability
    passed positionally fails instead of being read as an error.  The
    delivery curve is a right-continuous staircase: attempt k ends at
    k * attempt_latency_s with delivery probability 1 - eps_attempt**k, and
    the curve saturates at 1 - eps_attempt**max_attempts.
    """

    eps_attempt: float
    attempt_latency_s: float
    max_attempts: int

    def __post_init__(self):
        check_probability("eps_attempt", self.eps_attempt)
        check_positive("attempt_latency_s", self.attempt_latency_s)
        object.__setattr__(self, "max_attempts",
                           check_count("max_attempts", self.max_attempts))

    @property
    def attempt_times(self) -> np.ndarray:
        return self.attempt_latency_s * np.arange(1, self.max_attempts + 1)

    @property
    def attempt_reliabilities(self) -> np.ndarray:
        return 1.0 - self.eps_attempt ** np.arange(1, self.max_attempts + 1)

    @property
    def residual_error(self) -> float:
        """Probability the packet is never delivered within the attempt cap."""
        return self.eps_attempt ** self.max_attempts

    def reliability_at(self, deadline_s):
        """P(delivered by deadline); a deadline exactly on an attempt boundary
        includes that attempt (right-continuous); a NaN or non-real one raises."""
        t = np.asarray(deadline_s)
        if t.dtype.kind not in "iuf":
            raise ValueError(f"deadline_s must be a real number, got {deadline_s!r}")
        if np.isnan(t).any():
            raise ValueError(f"deadline_s must not be NaN, got {deadline_s!r}")
        # relative nudge so a deadline sitting on k*L lands on step k despite
        # float division noise
        ratio = t / self.attempt_latency_s
        k = np.clip(np.floor(ratio * (1.0 + 1e-12) + 1e-12), 0, self.max_attempts)
        out = 1.0 - self.eps_attempt ** k
        return float(out) if out.ndim == 0 else out

"""End-to-end reliability algebra for multi-connectivity architectures.

A session crosses a wireless link, that interface's core network, and a far
leg shared by all interfaces.  Duplicating traffic over several interfaces
helps differently depending on where the flows merge: dual connectivity
(dc) merges before one anchor core, so only the links are diversified;
interface diversity (ifd) merges after the cores, so each link+core pair
fails independently.  single uses the first interface alone.  The algebra
runs on outages, not reliabilities, so a 1e-9 link outage behind 1e-10
cores keeps its digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .simcore import union_error

__all__ = [
    "ARCHITECTURES",
    "Interface",
    "ReliabilityChain",
    "reliability",
    "outage_sweep",
]

ARCHITECTURES = ("single", "dc", "ifd")


def _check_prob(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class Interface:
    """One access option: wireless link reliability and its core reliability."""

    r_link: float
    r_core: float

    def __post_init__(self):
        _check_prob("r_link", self.r_link)
        _check_prob("r_core", self.r_core)


@dataclass(frozen=True)
class ReliabilityChain:
    """Interfaces in preference order (first = anchor) plus the far leg."""

    interfaces: tuple
    r_far: float = 1.0

    def __post_init__(self):
        if len(self.interfaces) == 0:
            raise ValueError("need at least one interface")
        object.__setattr__(self, "interfaces", tuple(self.interfaces))
        for i in self.interfaces:
            if not isinstance(i, Interface):
                raise TypeError(f"interfaces must be Interface, got {type(i)!r}")
        _check_prob("r_far", self.r_far)


def _outage(chain: ReliabilityChain, arch: str, q_link=None,
            vary_index: int = 0) -> float:
    """End-to-end outage, combined from per-element outages q = 1 - r.

    q_link, when given, replaces the link outage of interface vary_index.
    """
    if arch not in ARCHITECTURES:
        raise ValueError(f"arch must be one of {ARCHITECTURES}, got {arch!r}")
    q_links = [1.0 - i.r_link for i in chain.interfaces]
    if q_link is not None:
        q_links[vary_index] = q_link
    q_cores = [1.0 - i.r_core for i in chain.interfaces]
    q_far = 1.0 - chain.r_far
    if arch == "single":
        return union_error(q_links[0], q_cores[0], q_far)
    if arch == "dc":
        return union_error(math.prod(q_links), q_cores[0], q_far)
    return union_error(math.prod(map(union_error, q_links, q_cores)), q_far)


def reliability(chain: ReliabilityChain, arch: str) -> float:
    """End-to-end success probability under the given architecture.

    Each element's outage q = 1 - r is exact for r >= 1/2 (Sterbenz's
    lemma).  With U the union of independent failures
    (simcore.union_error), the outage is
    single: U(q_link1, q_core1, q_far)
    dc:     U(prod(q_link_i), q_core1, q_far)
    ifd:    U(prod(U(q_link_i, q_core_i)), q_far)
    and the reliability is 1 - outage.
    """
    return 1.0 - _outage(chain, arch)


def outage_sweep(chain: ReliabilityChain, link_outages: Iterable[float],
                 archs: Sequence[str] = ARCHITECTURES,
                 vary_index: int = 0) -> list:
    """Sweep one interface's link outage; returns (link_outage, arch, e2e_outage) rows.

    The varied interface keeps its core reliability; all other parameters
    stay fixed.  The swept outage enters the algebra as it is, never as a
    reliability 1 - q.
    """
    if not 0 <= vary_index < len(chain.interfaces):
        raise ValueError(f"vary_index {vary_index} out of range")
    rows = []
    for q in np.asarray(list(link_outages), dtype=float):
        _check_prob("link outage", float(q))
        for arch in archs:
            rows.append((float(q), arch, _outage(chain, arch, float(q), vary_index)))
    return rows

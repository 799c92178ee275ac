"""Reliability analysis toolkit for low-latency wireless links.

Capabilities, one module each:

- :mod:`urllckit.fbl` -- short-packet error probability and the minimum
  bandwidth that meets a reliability target, with joint and separate
  data/metadata coding.
- :mod:`urllckit.access` -- connection-establishment error budgets and the
  retransmission latency-reliability staircase.
- :mod:`urllckit.framesync` -- exact distribution of marker
  self-reproductions in random payloads and the resulting bounds on
  frame-synchronization probability, plus a matching Monte-Carlo detector.
- :mod:`urllckit.mimo` -- covariance-based zero-forcing beamforming for two
  terminals sharing a cell, across CSI assumptions and receiver strategies.
- :mod:`urllckit.multiconn` -- closed-form end-to-end reliability of single,
  dual and interface-diversity connectivity chains.
- :mod:`urllckit.ratesel` -- rate selection from finite training with
  averaged-reliability and probably-correct-reliability back-off.
- :mod:`urllckit.simcore` -- shared numerics and reproducible stream
  splitting for all Monte-Carlo paths.

The batch interface in :mod:`urllckit.cli` turns these into CSV/JSON
emitters; results are byte-identical for a fixed seed regardless of the
worker count.  The package namespace re-exports each module's public API,
its ``__all__``.
"""

from __future__ import annotations

from . import access, fbl, framesync, mimo, multiconn, ratesel, simcore
from .access import *  # noqa: F403
from .fbl import *  # noqa: F403
from .framesync import *  # noqa: F403
from .mimo import *  # noqa: F403
from .multiconn import *  # noqa: F403
from .ratesel import *  # noqa: F403
from .simcore import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *access.__all__,
    *fbl.__all__,
    *framesync.__all__,
    *mimo.__all__,
    *multiconn.__all__,
    *ratesel.__all__,
    *simcore.__all__,
    "__version__",
]

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
worker count.
"""

from . import access, fbl, framesync, mimo, multiconn, ratesel, simcore

__version__ = "0.1.0"

__all__ = ["access", "fbl", "framesync", "mimo", "multiconn", "ratesel", "simcore",
           "__version__"]

"""Parallel runtime: simulated MPI, decomposed solves, scaling timelines.

Two layers, matching the reproduction strategy in DESIGN.md:

* a *functional* layer (:mod:`~repro.parallel.comm`,
  :mod:`~repro.parallel.domain`, :mod:`~repro.parallel.exchange`,
  :mod:`~repro.parallel.driver`) that actually runs spatially decomposed
  MOC solves — the Jacobi-style boundary-flux exchange of paper
  Sec. 2.1/3.1 — through a pluggable execution engine
  (:mod:`repro.engine`): sequential in-process sweeps, or real worker
  processes over shared memory — both moving the halo
  through the same ``EdgePack`` tables, with :class:`SimComm` as the
  traffic accounting (not a message queue);
* a *timing* layer (:mod:`~repro.parallel.timeline`) that executes the
  paper-scale experiments (Figs. 9, 11, 12) on the simulated cluster,
  driven by the Sec. 3.3 performance model.
"""

from repro.parallel.comm import SimComm, CommStats
from repro.parallel.domain import DomainSolver
from repro.parallel.exchange import Route, match_interface_tracks
from repro.parallel.driver import DecomposedSolver, DecomposedResult
from repro.parallel.driver3d import ZDecomposedSolver
from repro.parallel.timeline import (
    ClusterTransportSimulator,
    SimulationReport,
    ScalingStudy,
)

__all__ = [
    "SimComm",
    "CommStats",
    "DomainSolver",
    "Route",
    "match_interface_tracks",
    "DecomposedSolver",
    "DecomposedResult",
    "ZDecomposedSolver",
    "ClusterTransportSimulator",
    "SimulationReport",
    "ScalingStudy",
]

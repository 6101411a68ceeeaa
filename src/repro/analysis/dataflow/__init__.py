"""Interprocedural dataflow layer for the static-analysis suite.

PR 4 grew a per-file AST linter; this package grows it into a *dataflow*
verifier. The dynamic shm sanitizer (:mod:`repro.engine.sanitize`) checks
the epoch/seqlock protocol on the schedules we happen to execute;
the checkers built on this layer prove the same ordering rules on *every*
control-flow path of the engine sources — the "catch it before it runs"
posture the ROADMAP's GPU-backend item demands, since device kernels
cannot be babysat by a runtime sanitizer.

Three building blocks:

* :mod:`~repro.analysis.dataflow.cfg` — statement-level control-flow
  graphs per function (``build_cfg``), with loop back edges,
  ``break``/``continue``/``return`` routing and a conservative model of
  ``try`` dispatch;
* :mod:`~repro.analysis.dataflow.solver` — a generic forward worklist
  fixpoint over those CFGs supporting both *may* (union) and *must*
  (intersection) analyses with per-node gen/kill transfers;
* :mod:`~repro.analysis.dataflow.reachdef` — reaching definitions over
  local names, the derivation closure used to decide whether an index
  expression is worker-partitioned, and the binding scan that maps local
  names onto shm-arena fields (``phi = fields["phi"]``, views, and
  single-handle helper calls).

The shm-protocol checker composes these into a program-point model of the
engine's epoch/seqlock ordering; the facts it proves (and what it
deliberately leaves to the dynamic sanitizer) are tabulated in DESIGN.md.
"""

from __future__ import annotations

from repro.analysis.dataflow.cfg import (
    Cfg,
    CfgNode,
    build_cfg,
    iter_functions,
    node_parts,
)
from repro.analysis.dataflow.reachdef import (
    ReachingDefs,
    arena_handles,
    bound_names,
    derived_names,
    used_names,
)
from repro.analysis.dataflow.solver import solve_forward

__all__ = [
    "Cfg",
    "CfgNode",
    "ReachingDefs",
    "arena_handles",
    "bound_names",
    "build_cfg",
    "derived_names",
    "iter_functions",
    "node_parts",
    "solve_forward",
    "used_names",
]

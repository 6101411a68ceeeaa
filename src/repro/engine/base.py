"""Execution-engine abstractions for decomposed transport solves.

An :class:`ExecutionEngine` runs the stage-4 eigenvalue iteration of a
spatially decomposed problem (2D lattice cuts or 3D axial slabs) and
carries boundary angular flux along the interface ``Route`` table,
precompiled into :class:`~repro.engine.problem.EdgePack` gather/scatter
edges. Engines differ only in *how* the subdomain sweeps execute and how
the halo moves:

* ``inproc`` — the deterministic single-process reference: edge-wise
  in-place copies between the subdomain sweepers, kept as the
  equivalence oracle;
* ``mp-async`` — real OS worker processes over
  ``multiprocessing.shared_memory`` SoA buffers under the
  dependency-driven mailbox protocol: per-edge epoch-tagged halo
  mailboxes instead of global barriers, so a worker only ever waits on
  its own neighbours (``mp-async-sanitize`` runs it under the race
  sanitizer).

All consume the same :class:`~repro.engine.problem.DecomposedProblem`
adapter, the same edge tables and the driver's
:class:`~repro.parallel.comm.SimComm` traffic accounting, so traffic
counts and results are engine-independent by construction.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.solver.convergence import ConvergenceMonitor

#: Environment override for the engine wait timeout (seconds). Consulted
#: when neither the CLI nor the config provides one — the resolution order
#: is CLI > config > environment > :data:`DEFAULT_ENGINE_TIMEOUT`.
ENGINE_TIMEOUT_ENV_VAR = "REPRO_ENGINE_TIMEOUT"

#: Fallback wait timeout (seconds) for grant and mailbox waits.
DEFAULT_ENGINE_TIMEOUT = 600.0


def resolve_engine_timeout(explicit: float | None = None) -> float:
    """Resolve the engine wait timeout: explicit value > env var > default.

    Both sources are validated the same way — a non-positive or
    unparseable timeout raises :class:`~repro.errors.ConfigError` rather
    than silently producing an engine that can never time out.
    """
    if explicit is None:
        raw = os.environ.get(ENGINE_TIMEOUT_ENV_VAR)
        if raw is None or not raw.strip():
            return DEFAULT_ENGINE_TIMEOUT
        try:
            explicit = float(raw)
        except ValueError:
            raise ConfigError(
                f"{ENGINE_TIMEOUT_ENV_VAR} must be a number of seconds "
                f"(got {raw!r})"
            ) from None
    timeout = float(explicit)
    if not timeout > 0.0:
        raise ConfigError(f"engine timeout must be positive (got {timeout})")
    return timeout


@dataclass
class EngineResult:
    """Engine-agnostic outcome of a decomposed eigenvalue solve."""

    keff: float
    scalar_flux: np.ndarray  # global (R_total, G), domain-blocked
    converged: bool
    num_iterations: int
    monitor: ConvergenceMonitor
    solve_seconds: float
    #: Number of OS processes that executed sweeps (1 for ``inproc``).
    num_workers: int = 1
    #: Per-worker ``(worker_id, stage -> seconds)`` timing payloads.
    worker_timers: list[tuple[int, dict[str, float]]] = field(default_factory=list)
    #: Race-sanitizer report (``mp-async-sanitize`` engine only, else ``None``).
    sanitizer: Any = None
    #: Engine-side communication counters (multiprocess engines only): totals of
    #: ``halo_wait_ns``, ``neighbor_stalls`` and ``epochs_overlapped``
    #: summed across workers, fed into the observability CounterSet.
    comm_counters: dict[str, int] = field(default_factory=dict)
    #: CMFD accelerator bookkeeping (``cmfd_solves``/``cmfd_iterations``/
    #: ``cmfd_skips``/``cmfd_seconds``); empty dict when CMFD is off.
    cmfd_stats: dict[str, float] = field(default_factory=dict)


class ExecutionEngine(ABC):
    """One way of executing a decomposed transport solve."""

    #: Registry name; concrete engines override.
    name: str = "?"

    @abstractmethod
    def solve(self, problem, comm) -> EngineResult:
        """Run the eigenvalue iteration of ``problem`` to convergence,
        charging its traffic to ``comm`` (a
        :class:`~repro.parallel.comm.SimComm` over the problem's domains)."""

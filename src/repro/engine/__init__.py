"""Execution engines for decomposed transport solves.

The engine layer behind the decomposed drivers
(:mod:`repro.parallel.driver`, :mod:`repro.parallel.driver3d`):

* ``inproc`` — the deterministic in-process reference, kept as the
  equivalence oracle: sequential sweeps, halo moved by in-place
  edge-wise copies between the subdomain sweepers;
* ``mp-async`` — real OS worker processes sweeping subdomains in
  parallel, with the halo and the global flux in shared-memory SoA
  buffers and per-edge epoch-tagged halo mailboxes (dependency-driven,
  no global barriers);
* ``mp-async-sanitize`` — the same engine and worker body with every
  flux and halo access logged and checked by the shm race sanitizer.

Every engine moves the halo through the same
:class:`~repro.engine.problem.EdgePack` gather/scatter tables built from
the driver's ``Route`` table, and charges the same traffic to the
driver's :class:`~repro.parallel.comm.SimComm` — an accounting object,
not a message queue — so results and
:class:`~repro.parallel.comm.CommStats` are identical across engines and
every accounting test runs unchanged against any of them.
"""

from repro.engine.async_mp import AsyncMpEngine
from repro.engine.base import (
    ENGINE_TIMEOUT_ENV_VAR,
    EngineResult,
    ExecutionEngine,
    resolve_engine_timeout,
)
from repro.engine.inproc import InprocEngine
from repro.engine.pool import ArenaPool, EnginePool
from repro.engine.problem import (
    DecomposedProblem,
    EdgePack,
    Problem2D,
    Problem3D,
)
from repro.engine.registry import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    engine_names,
    register_engine,
    resolve_engine,
)
from repro.engine.sanitize import (
    FaultSpec,
    SanitizedAsyncMpEngine,
    SanitizerReport,
    analyze_events,
)
from repro.engine.shm import ShmArena

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "ENGINE_TIMEOUT_ENV_VAR",
    "ArenaPool",
    "AsyncMpEngine",
    "DecomposedProblem",
    "EnginePool",
    "EdgePack",
    "EngineResult",
    "ExecutionEngine",
    "FaultSpec",
    "InprocEngine",
    "Problem2D",
    "Problem3D",
    "SanitizedAsyncMpEngine",
    "SanitizerReport",
    "ShmArena",
    "analyze_events",
    "engine_names",
    "register_engine",
    "resolve_engine",
    "resolve_engine_timeout",
]

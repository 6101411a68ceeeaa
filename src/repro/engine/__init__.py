"""Execution engines for decomposed transport solves.

The communicator/engine layer behind the decomposed drivers
(:mod:`repro.parallel.driver`, :mod:`repro.parallel.driver3d`):

* ``inproc`` — the deterministic in-process simulator over
  :class:`~repro.parallel.comm.SimComm`, kept as the equivalence oracle;
* ``mp-async`` — real OS worker processes sweeping subdomains in
  parallel, with the halo and the global flux in shared-memory SoA
  buffers and per-edge epoch-tagged halo mailboxes (dependency-driven,
  no global barriers);
* ``mp-async-sanitize`` — the same engine and worker body with every
  flux and halo access logged and checked by the shm race sanitizer.

All engines execute the same ``Route``/``InterfaceExchange`` tables and
produce identical results and :class:`~repro.parallel.comm.CommStats`
traffic, so every accounting test runs unchanged against any of them.
"""

from repro.engine.async_mp import AsyncMpEngine, MpCommunicator
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
    RoutePack,
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
    "MpCommunicator",
    "Problem2D",
    "Problem3D",
    "RoutePack",
    "SanitizedAsyncMpEngine",
    "SanitizerReport",
    "ShmArena",
    "analyze_events",
    "engine_names",
    "register_engine",
    "resolve_engine",
    "resolve_engine_timeout",
]

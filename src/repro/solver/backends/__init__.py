"""Pluggable sweep-kernel backends (registry + selection policy).

The transport sweeps dispatch their inner segment loop through one of the
registered :class:`~repro.solver.backends.base.KernelBackend` objects:

* ``numpy`` — the default vectorised kernel over precompiled sweep plans;
* ``reference`` — the seed lockstep loop, kept as equivalence oracle and
  benchmark baseline.

Selection order: explicit argument, then the ``REPRO_SWEEP_BACKEND``
environment variable, then :data:`DEFAULT_BACKEND`. ``None``, ``""`` and
``"auto"`` all mean "not requested" — the config default is ``auto``
precisely so the environment variable can apply.
"""

from __future__ import annotations

import os

from repro.errors import SolverError
from repro.solver.backends.base import KernelBackend, KernelTimings, SweepContext
from repro.solver.backends.numpy_backend import NumpySweepBackend
from repro.solver.backends.plan import SweepPlan, TrackTopology, build_position_index
from repro.solver.backends.reference_backend import ReferenceSweepBackend

#: Environment override consulted when no backend is requested explicitly.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: Default backend when nothing is configured anywhere.
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend to the registry (last registration wins per name)."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(NumpySweepBackend())
register_backend(ReferenceSweepBackend())


def backend_names() -> tuple[str, ...]:
    """Registered backend names plus the ``auto`` selector."""
    return ("auto",) + tuple(sorted(_REGISTRY))


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by exact name (no fallback)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown sweep backend {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def resolve_backend_name(requested: str | None = None) -> str:
    """The backend name the selection policy picks (argument > env var >
    default), without looking it up."""
    if requested is not None and requested.strip().lower() == "auto":
        requested = None
    name = requested or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    return name.strip().lower()


def resolve_backend(
    requested: str | KernelBackend | None = None,
) -> KernelBackend:
    """Select the sweep kernel: argument > env var > default."""
    if isinstance(requested, KernelBackend):
        return requested
    return get_backend(resolve_backend_name(requested))


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "KernelTimings",
    "SweepContext",
    "SweepPlan",
    "TrackTopology",
    "backend_names",
    "build_position_index",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
]

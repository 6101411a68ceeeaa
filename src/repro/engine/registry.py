"""Execution-engine registry and selection policy.

Mirrors the sweep-backend and tracer registries: engines register by name,
selection order is explicit argument > ``REPRO_ENGINE`` environment
variable > default. There is no silent fallback — asking for an engine
the platform cannot run (``mp-async`` without ``fork``) fails loudly at
solve time, because the execution semantics the user asked for (real
parallel processes) cannot be substituted quietly.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.engine.async_mp import AsyncMpEngine
from repro.engine.base import (
    ENGINE_TIMEOUT_ENV_VAR,
    ExecutionEngine,
    resolve_engine_timeout,
)
from repro.engine.inproc import InprocEngine
from repro.engine.sanitize import SanitizedAsyncMpEngine
from repro.errors import ConfigError

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "ENGINE_TIMEOUT_ENV_VAR",
    "engine_names",
    "register_engine",
    "resolve_engine",
    "resolve_engine_name",
    "resolve_engine_timeout",
]

#: Environment override consulted when no engine is requested explicitly.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Default engine when nothing is configured anywhere.
DEFAULT_ENGINE = "inproc"

_REGISTRY: dict[str, Callable[..., ExecutionEngine]] = {}


def register_engine(name: str, factory: Callable[..., ExecutionEngine]) -> None:
    """Add an engine factory to the registry (last registration wins).

    Factories accept the keyword arguments ``workers``, ``timeout`` and
    ``pin_workers`` (engines that have no use for one simply ignore it —
    ``inproc`` has no worker pool to time out or pin).
    """
    _REGISTRY[name] = factory


register_engine(
    "inproc", lambda workers=None, timeout=None, pin_workers=False: InprocEngine()
)
register_engine(
    "mp-async",
    lambda workers=None, timeout=None, pin_workers=False: AsyncMpEngine(
        workers=workers, timeout=timeout, pin_workers=pin_workers
    ),
)
register_engine(
    "mp-async-sanitize",
    lambda workers=None, timeout=None, pin_workers=False: SanitizedAsyncMpEngine(
        workers=workers, timeout=timeout, pin_workers=pin_workers
    ),
)


def engine_names() -> tuple[str, ...]:
    """Registered engine names, ``inproc`` (the default/oracle) first."""
    return tuple(sorted(_REGISTRY, key=lambda n: (n != DEFAULT_ENGINE, n)))


def resolve_engine_name(requested: str | None = None) -> str:
    """The engine name the selection policy picks (argument > env var >
    default), without constructing the engine."""
    if requested is not None and requested.strip().lower() == "auto":
        requested = None
    name = requested or os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    return name.strip().lower()


def resolve_engine(
    requested: str | ExecutionEngine | None = None,
    workers: int | None = None,
    timeout: float | None = None,
    pin_workers: bool = False,
) -> ExecutionEngine:
    """Select the execution engine: argument > env var > default.

    ``None``, ``""`` and ``"auto"`` all mean "not requested" — the config
    default is ``auto`` precisely so :data:`ENGINE_ENV_VAR` can apply.
    ``timeout`` is the already-merged CLI/config value (``None`` lets the
    engine consult :data:`ENGINE_TIMEOUT_ENV_VAR`, then the default).
    """
    if isinstance(requested, ExecutionEngine):
        return requested
    name = resolve_engine_name(requested)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown execution engine {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    return factory(workers=workers, timeout=timeout, pin_workers=pin_workers)

"""Shm race sanitizer for the mailbox protocol: ``--engine=mp-async-sanitize``.

The multiprocess engine's only safety argument used to be "the
equivalence tests pass". This module turns its protocol into a checked
artifact: :class:`SanitizedAsyncMpEngine` runs the *production* worker
body (:func:`repro.engine.async_mp._worker_loop`, by identity) with the
flux and halo entries of its ``fields`` mapping replaced by
:class:`TrackedField` wrappers. Every subscript on them records an
:class:`AccessEvent` tagged ``(worker, epoch, array, slots)`` into a
per-worker :class:`AccessLog` whose epoch is the worker's local iteration
(its own ``worker_seq`` progress counter). Results stay bitwise equal to
``inproc``. After the solve, :func:`analyze_events` checks two protocol
invariants over the merged logs:

* **same-epoch overlap** — no two workers may touch overlapping slots of
  the same shared array within one epoch when either access is a write;
* **published halo reads** — a halo slot read at epoch ``e`` must have
  been written at epoch ``e-1``; reading anything else consumes stale or
  in-flight data.

Halo slots are logged as parity-flattened ``parity * num_routes + route``
indices, so rule 2 is exactly the mailbox's published-before-read
invariant: every slot a consumer unpacks at iteration ``t`` must have been
packed (into the other parity) at iteration ``t-1``. Epochs are program
order, not thread timing, so the verdict is a deterministic function of
the schedule — a clean run reports zero findings every time, and the
seeded fault injection (:class:`FaultSpec`: one worker skips its edge
waits and unpacks the parity producers are writing this very iteration)
trips both rules every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.engine.async_mp import AsyncMpEngine
from repro.errors import SanitizerError
from repro.io.logging_utils import get_logger


@dataclass(frozen=True)
class AccessEvent:
    """One shared-memory access: who, when (epoch), what, where."""

    worker: int
    epoch: int
    kind: str  # "r" | "w"
    array: str
    indices: tuple[int, ...]


class AccessLog:
    """Per-worker event log; the epoch is the worker's local iteration.

    ``clock`` is the engine's ``worker_seq`` array: only worker ``w``
    writes ``clock[w]`` (``t + 1`` at the end of iteration ``t``), so
    reading it gives the iteration in program order.
    """

    def __init__(self, worker: int, clock: np.ndarray) -> None:
        self.worker = int(worker)
        self.clock = clock
        self.events: list[AccessEvent] = []

    def record(self, kind: str, array: str, indices: Iterable[int]) -> None:
        self.events.append(
            AccessEvent(
                worker=self.worker,
                epoch=int(self.clock[self.worker]),
                kind=kind,
                array=array,
                indices=tuple(int(i) for i in indices),
            )
        )


class TrackedField:
    """A shared array view whose subscripts are recorded in an AccessLog.

    The worker body reads and writes the wrapped fields only by
    subscript, so the event log is complete by construction for them.
    Keys are a row slice or row index array, or ``(parity, routes)`` into
    the double-buffered halo, logged as flat ``parity * num_routes +
    route`` slots.
    """

    def __init__(self, name: str, array: np.ndarray, log: AccessLog) -> None:
        self.name = name
        self.array = array
        self.log = log

    def _slots(self, key: Any) -> np.ndarray:
        if isinstance(key, tuple):
            parity, routes = key
            flat: np.ndarray = parity * self.array.shape[1] + np.asarray(routes)
            return flat
        if isinstance(key, slice):
            return np.arange(*key.indices(self.array.shape[0]))
        return np.atleast_1d(key)

    def __getitem__(self, key: Any) -> Any:
        self.log.record("r", self.name, self._slots(key))
        return self.array[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self.log.record("w", self.name, self._slots(key))
        self.array[key] = value


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic wrong-parity fault: which worker, which iteration."""

    worker: int
    iteration: int = 1

    @classmethod
    def from_seed(cls, seed: int, num_workers: int) -> "FaultSpec":
        """Seeded fault site: the worker is drawn, the iteration is the
        first that unpacks halo (always executed, so the detector test
        cannot flake)."""
        rng = np.random.default_rng(seed)
        return cls(worker=int(rng.integers(num_workers)), iteration=1)


@dataclass(frozen=True)
class RaceFinding:
    """One detected protocol violation."""

    rule: str  # "same-epoch-overlap" | "unpublished-read"
    array: str
    epoch: int
    workers: tuple[int, ...]
    indices: tuple[int, ...]  # offending slice sample (sorted, capped)

    def render(self) -> str:
        sample = ", ".join(map(str, self.indices[:8]))
        more = "" if len(self.indices) <= 8 else f", ... ({len(self.indices)} total)"
        return (
            f"[{self.rule}] array={self.array!r} epoch={self.epoch} "
            f"workers={self.workers} indices=[{sample}{more}]"
        )


@dataclass
class SanitizerReport:
    """Outcome of one sanitized solve."""

    num_events: int
    num_workers: int
    findings: list[RaceFinding] = field(default_factory=list)
    fault: FaultSpec | None = None

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        head = (
            f"shm sanitizer: {self.num_events} events over "
            f"{self.num_workers} workers, {len(self.findings)} finding(s)"
            + (f", injected fault {self.fault}" if self.fault else "")
        )
        return "\n".join([head, *(f.render() for f in self.findings)])


def _cap(indices: Iterable[int], limit: int = 64) -> tuple[int, ...]:
    return tuple(sorted(indices)[:limit])


def analyze_events(
    events_by_worker: Mapping[int, list[AccessEvent]],
    fault: FaultSpec | None = None,
) -> SanitizerReport:
    """Check the merged per-worker logs against the mailbox protocol."""
    merged = [event for events in events_by_worker.values() for event in events]
    findings: list[RaceFinding] = []

    by_array_epoch: dict[tuple[str, int], list[AccessEvent]] = {}
    for event in merged:
        by_array_epoch.setdefault((event.array, event.epoch), []).append(event)

    # Rule 1: cross-worker overlapping slices within one epoch, any write.
    for (array, epoch), group in sorted(by_array_epoch.items()):
        # Aggregate per worker: the union each worker wrote / read here.
        writes: dict[int, set[int]] = {}
        touches: dict[int, set[int]] = {}
        for event in group:
            touches.setdefault(event.worker, set()).update(event.indices)
            if event.kind == "w":
                writes.setdefault(event.worker, set()).update(event.indices)
        for writer, written in sorted(writes.items()):
            for other, touched in sorted(touches.items()):
                if other == writer:
                    continue
                overlap = written & touched
                if overlap:
                    findings.append(
                        RaceFinding(
                            rule="same-epoch-overlap",
                            array=array,
                            epoch=epoch,
                            workers=tuple(sorted((writer, other))),
                            indices=_cap(overlap),
                        )
                    )

    # Rule 2: halo reads must consume slots published in the previous epoch.
    for (array, epoch), group in sorted(by_array_epoch.items()):
        if array != "halo":
            continue
        published: set[int] = set()
        for event in by_array_epoch.get((array, epoch - 1), []):
            if event.kind == "w":
                published.update(event.indices)
        for event in group:
            if event.kind != "r":
                continue
            stale = set(event.indices) - published
            if stale:
                findings.append(
                    RaceFinding(
                        rule="unpublished-read",
                        array=array,
                        epoch=epoch,
                        workers=(event.worker,),
                        indices=_cap(stale),
                    )
                )

    # Deduplicate: a fault typically trips both views of the same overlap.
    unique = sorted(set(findings), key=lambda f: (f.rule, f.array, f.epoch, f.workers))
    return SanitizerReport(
        num_events=len(merged),
        num_workers=len(events_by_worker),
        findings=unique,
        fault=fault,
    )


class SanitizedAsyncMpEngine(AsyncMpEngine):
    """The ``mp-async`` engine under the shm race sanitizer.

    Same worker body, same grant/mailbox schedule and bitwise-identical
    results; every flux and halo access is logged with the worker's local
    iteration as the epoch and checked post-solve by
    :func:`analyze_events`. ``fault_seed``/``fault`` inject the deliberate
    wrong-parity unpack used to prove the detectors fire; the fault
    iteration must be >= 1 because iteration 0 consumes no halo.
    """

    name = "mp-async-sanitize"

    #: Arena fields the worker body touches only by subscript.
    TRACKED = ("phi", "phi_new", "halo")

    def __init__(
        self,
        workers: int | None = None,
        timeout: float | None = None,
        pin_workers: bool = False,
        fault_seed: int | None = None,
        fault: FaultSpec | None = None,
    ) -> None:
        super().__init__(workers=workers, timeout=timeout, pin_workers=pin_workers)
        if fault is not None and fault_seed is not None:
            raise SanitizerError("pass either fault or fault_seed, not both")
        self._fault_seed = fault_seed
        self.fault = fault
        self._logger = get_logger("repro.engine.sanitize")

    def _prepare_solve(self, num_workers: int) -> None:
        if self.fault is None and self._fault_seed is not None:
            self.fault = FaultSpec.from_seed(self._fault_seed, num_workers)
        if self.fault is not None:
            if not 0 <= self.fault.worker < num_workers:
                raise SanitizerError(
                    f"fault names worker {self.fault.worker} but only "
                    f"{num_workers} workers run"
                )
            if self.fault.iteration < 1:
                raise SanitizerError(
                    "mailbox fault iteration must be >= 1 "
                    "(iteration 0 consumes no halo)"
                )
            self._logger.warning(
                "injecting wrong-parity mailbox fault: worker %d, iteration %d",
                self.fault.worker, self.fault.iteration,
            )

    def _worker_fields(self, wid: int, fields: dict[str, Any]) -> dict[str, Any]:
        """Wrap the flux and halo in :class:`TrackedField` for worker ``wid``.

        The grant word, the sequence counters, ``fission``/``prod`` and
        the CMFD ``currents``/``factors`` stay untracked: they are the
        synchronisation cells themselves or single-writer cells ordered
        by the grant protocol, whose correctness is exactly what rule 2
        checks through the halo.
        """
        log = AccessLog(wid, clock=fields["worker_seq"])
        tracked = dict(fields, log=log)
        for name in self.TRACKED:
            tracked[name] = TrackedField(name, fields[name], log)
        return tracked

    def _result_extras(self, reports: dict[int, dict]) -> dict:
        events = {wid: report["events"] for wid, report in reports.items()}
        report = analyze_events(events, fault=self.fault)
        if report.clean:
            self._logger.info(
                "shm sanitizer clean: %d events, 0 findings", report.num_events
            )
        else:
            self._logger.error("shm sanitizer findings:\n%s", report.render())
        return {"sanitizer": report}

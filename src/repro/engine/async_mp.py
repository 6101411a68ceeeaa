"""The multiprocess execution engine: ``--engine=mp-async``.

The paper's operating mode is one rank per subdomain sweeping in parallel
with near-neighbour boundary-flux exchange, overlapping communication
with the sweep. This engine is the host-side realisation of that scheme:
subdomains are assigned round-robin to ``fork``-ed OS worker processes,
the global scalar flux and the halo live in
:class:`~repro.engine.shm.ShmArena` SoA buffers, and there are no global
barriers — only per-neighbour dependency tracking:

* **per-edge mailboxes** — the halo is double-buffered per directed
  domain-to-domain edge (:class:`~repro.engine.problem.EdgePack`); the
  producer packs an edge's slots the moment the source domain's sweep
  block completes, then publishes a monotonic epoch sequence number
  (seqlock-style: payload first, counter second, so a counter that reads
  ``>= t`` guarantees iteration ``t-1``'s payload is fully visible);
* **lazy unpack** — a consumer waits only for the epoch counters of the
  edges entering the domain it is about to sweep, unpacking on first
  read; workers never wait on non-neighbours, and a worker whose inputs
  are already published starts its next sweep immediately;
* **grant/harvest eigenvalue loop** — the parent never touches the flux:
  workers normalise their own blocks and tally their own fission source
  and production, the parent only sums the per-domain productions through
  the same rank-ordered ``SimComm.allreduce`` as ``inproc`` (keeping k-eff
  bitwise equal) and publishes a
  *grant* word ``(keff, norm, stop-mode, epoch)`` that releases the next
  iteration. Convergence is checked one grant behind the workers, so the
  check overlaps the next sweep; on early convergence exactly one
  speculative sweep is discarded (it writes only ``phi_new``, ``halo``
  and ``prod`` — never the published flux — and is never accounted).

Double-buffer safety: a worker needs grant ``t+1`` to start iteration
``t+1``, and the parent issues that grant only after *every* worker
finished iteration ``t`` — so a producer can never rewrite the halo
parity a lagging consumer still has to read. Results stay bitwise equal
to ``inproc``: identical float op order, identical edge tables,
identical traffic accounting.

There is exactly one worker body, :func:`_worker_loop`. The race
sanitizer (:mod:`repro.engine.sanitize`) runs that same function with
access-logging wrappers in its ``fields`` mapping and, for the negative
control, a ``fault`` site; production passes plain shared-memory views
and ``fault=None``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from queue import Empty
from typing import Any

import numpy as np

from repro.engine.base import EngineResult, ExecutionEngine, resolve_engine_timeout
from repro.engine.problem import DecomposedProblem, EdgePack
from repro.engine.shm import ShmArena
from repro.errors import CommunicationError, ReproError, SolverError
from repro.io.logging_utils import StageTimer, get_logger
from repro.parallel.comm import SimComm
from repro.solver.cmfd import CmfdStats, apply_engine_cmfd
from repro.solver.convergence import ConvergenceMonitor

#: Grant-word slots (float64): epoch counter, eigenvalue, normalisation,
#: stop mode. The parent writes the payload slots first and the epoch
#: last; workers read the payload only after observing the epoch.
_EPOCH, _KEFF, _PNORM, _STOP = 0, 1, 2, 3

#: Stop modes carried in the grant word.
RUN, FINAL, HALT = 0, 1, 2

#: Poll backoff for mailbox/grant waits: start near-spinning, back off
#: exponentially to 1 ms so oversubscribed boxes (more workers than
#: cores) don't starve the producers they are waiting on.
_POLL_MIN, _POLL_MAX = 1e-5, 1e-3

#: What a sweep can realistically throw in a worker: library errors,
#: numpy shape/value problems, or OS-level faults. Deliberately not
#: ``Exception`` — a programming error (``TypeError``, ``AttributeError``)
#: should crash the worker loudly, not be repackaged.
WORKER_ERRORS = (
    ReproError,
    ArithmeticError,
    ValueError,
    IndexError,
    OSError,
    RuntimeError,
)


def _maybe_pin_worker(wid: int, pin: bool) -> None:
    """Pin this worker process to one CPU of the parent's affinity mask.

    Workers are assigned round-robin over the allowed CPUs, so on a box
    with at least as many cores as workers each sweep process owns a core
    and the scheduler stops migrating them mid-iteration. Platforms
    without ``sched_setaffinity`` (macOS) log and run unpinned — pinning
    is a performance hint, not a correctness requirement.
    """
    if not pin:
        return
    logger = get_logger("repro.engine.async_mp")
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        logger.warning("worker %d: CPU pinning unsupported on this platform", wid)
        return
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[wid % len(allowed)]
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:  # pragma: no cover - exotic cgroup configs
        logger.warning("worker %d: could not pin to CPU %d: %s", wid, cpu, exc)
        return
    logger.info("worker %d pinned to CPU %d", wid, cpu)


def _wait_value(array, index, threshold, timeout, desc):
    """Poll ``array[index] >= threshold``; True if it blocked at all."""
    if array[index] >= threshold:
        return False
    deadline = time.monotonic() + timeout
    delay = _POLL_MIN
    while array[index] < threshold:
        if time.monotonic() > deadline:
            raise CommunicationError(
                f"timed out after {timeout}s waiting for {desc}"
            )
        # Seqlock spin-wait: the counter lives in lock-free shared memory
        # with no waitable primitive attached (an OS condition here would
        # reintroduce the cross-process locking the mailbox design
        # removes), so a bounded exponential backoff is the wait.
        time.sleep(delay)  # repro: ignore[blocking-sleep]
        delay = min(delay * 2.0, _POLL_MAX)
    return True


def _worker_loop(problem, pack, wid, owned, fields, queue, timeout, pin, fault=None):
    """Worker body: grant-gated sweeps with per-edge mailbox waits.

    Local iteration ``t`` consumes grant ``t+1``, normalises the previous
    sweep (publishing ``fission_seq``), then per owned domain waits for
    that domain's in-edges to reach epoch ``t``, unpacks them from the
    ``(t-1) % 2`` halo parity, sweeps, packs its out-edges into parity
    ``t % 2`` and publishes their counters, and finally publishes its own
    ``worker_seq``. The stop mode is checked *before* the normalise
    (``HALT``: a speculative iteration whose results must not clobber the
    converged flux) and after it (``FINAL``: normalise-only last grant).

    ``fields`` maps arena field names to shared arrays. The flux and halo
    are only ever touched through subscripts, so the sanitizer can hand in
    access-logging wrappers instead (plus their ``log``, whose events ride
    home in the worker's report). ``fault`` is ``None`` in production; the
    sanitizer's negative control names a worker and iteration that skips
    its edge waits and unpacks the parity producers are writing *now*.
    """
    timer = StageTimer()
    halo = fields["halo"]
    phi, phi_new = fields["phi"], fields["phi_new"]
    fission, prod = fields["fission"], fields["prod"]
    edge_seq, grant = fields["edge_seq"], fields["grant"]
    worker_seq, fission_seq = fields["worker_seq"], fields["fission_seq"]
    cmfd = problem.cmfd
    currents, factors = fields.get("currents"), fields.get("factors")
    log = fields.get("log")
    stalls = 0
    overlapped = 0
    try:
        _maybe_pin_worker(wid, pin)
        t = 0
        while True:
            with timer.stage("worker_grant_wait"):
                _wait_value(grant, _EPOCH, t + 1, timeout, f"grant {t + 1}")
            mode = int(grant[_STOP])
            keff = float(grant[_KEFF])
            pnorm = float(grant[_PNORM])
            if mode == HALT:
                break
            if t > 0:
                with timer.stage("worker_normalize"):
                    for d in owned:
                        rows = problem.rows(d)
                        block = phi_new[rows] / pnorm
                        if cmfd is not None:
                            # CMFD prolongation: same divide-then-multiply
                            # element order as the inproc reference, so the
                            # flux stays bitwise equal with acceleration on.
                            block *= factors[problem.block(d, cmfd.cellmap)]
                        phi[rows] = block
                        fission[rows] = problem.fission_source(d, block)
                fission_seq[wid] = t
            if mode == FINAL:
                break
            inject = fault is not None and fault.worker == wid and fault.iteration == t
            parity = t % 2 if inject else (t - 1) % 2
            iteration_stalled = False
            for d in owned:
                rows = problem.rows(d)
                sweeper = problem.sweeper(d)
                if t > 0:
                    for e in pack.in_edges(d):
                        if not inject and edge_seq[e] < t:
                            with timer.stage("worker_halo_wait"):
                                _wait_value(
                                    edge_seq, e, t, timeout,
                                    f"edge {pack.edge_pairs[e]} epoch {t}",
                                )
                            stalls += 1
                            iteration_stalled = True
                        with timer.stage("worker_exchange"):
                            tracks, dirs = pack.edge_target(e)
                            sweeper.psi_in[tracks, dirs] = halo[
                                parity, pack.edge_routes(e)
                            ]
                    if cmfd is not None:
                        # Rescale the stored boundary flux by the grant's
                        # prolongation factors (published before grant t+1,
                        # i.e. the factors of iteration t-1) — after the
                        # in-edge unpack so received slots are scaled too,
                        # matching inproc's end-of-iteration rescale.
                        with timer.stage("worker_exchange"):
                            sweeper.current_tally.scale_boundary_flux(
                                sweeper.psi_in, factors
                            )
                with timer.stage("worker_sweep"):
                    phi_new[rows] = problem.sweep_domain(d, phi[rows], keff)
                    if cmfd is not None:
                        # Publish before worker_seq: the parent reads the
                        # coarse tallies only after every worker_seq >= t+1,
                        # and grants t+2 only after the coarse solve, so
                        # the single buffer is never overwritten early.
                        cmfd.domain_rows(currents, d)[:] = (
                            sweeper.current_tally.take()
                        )
                    for e in pack.out_edges(d):
                        tracks, dirs = pack.edge_source(e)
                        halo[t % 2, pack.edge_routes(e)] = sweeper.psi_out_last[
                            tracks, dirs
                        ]
                        edge_seq[e] = t + 1  # publish after the payload
            with timer.stage("worker_sweep"):
                for d in owned:
                    prod[d] = problem.production(d, phi_new[problem.rows(d)])
            if t > 0 and not iteration_stalled:
                overlapped += 1
            worker_seq[wid] = t + 1
            t += 1
        report = {
            "timers": timer.as_dict(),
            "comm_counters": {
                "halo_wait_ns": int(round(timer.duration("worker_halo_wait") * 1e9)),
                "neighbor_stalls": stalls,
                "epochs_overlapped": overlapped,
            },
        }
        if log is not None:
            report["events"] = log.events
        queue.put(("report", wid, report))
    except WORKER_ERRORS as exc:
        get_logger("repro.engine.async_mp").error("worker %d failed: %s", wid, exc)
        queue.put(("error", wid, traceback.format_exc()))
        raise SystemExit(1)


class AsyncMpEngine(ExecutionEngine):
    """Shared-memory domain-parallel engine over forked worker processes.

    Runs the grant/harvest protocol described in the module docstring.
    Hooks for the race-sanitizing subclass
    (:class:`~repro.engine.sanitize.SanitizedAsyncMpEngine`):
    :meth:`_prepare_solve` runs once the worker count is known,
    :meth:`_worker_fields` picks each worker's ``fields`` mapping,
    :attr:`fault` is passed to every worker, and :meth:`_result_extras`
    folds the worker reports into extra result fields.
    """

    name = "mp-async"

    #: Injected fault site handed to every worker (``None`` in production).
    fault: Any = None

    def __init__(
        self,
        workers: int | None = None,
        timeout: float | None = None,
        pin_workers: bool = False,
    ) -> None:
        self.workers = workers
        self.timeout = resolve_engine_timeout(timeout)
        self.pin_workers = bool(pin_workers)
        #: Optional :class:`~repro.engine.pool.ArenaPool` recycling the
        #: shared segments across solves (attached by an EnginePool host;
        #: ``None`` keeps the batch per-solve map/unlink behaviour).
        self.arena_pool = None
        self._logger = get_logger("repro.engine.async_mp")

    def _prepare_solve(self, num_workers: int) -> None:
        """Called once per solve after the worker count is resolved."""

    def _worker_fields(self, wid: int, fields: dict[str, Any]) -> dict[str, Any]:
        """The ``fields`` mapping worker ``wid`` runs on."""
        return fields

    def _result_extras(self, reports: dict[int, dict]) -> dict:
        """Extra :class:`EngineResult` fields from the worker reports."""
        return {}

    def resolve_workers(self, num_domains: int) -> int:
        """Worker count: requested (or one per domain), capped by domains."""
        requested = self.workers or num_domains
        return max(1, min(int(requested), num_domains))

    def _acquire_arena(self, shapes: dict) -> tuple[ShmArena, bool]:
        """A zeroed arena for ``shapes``: pooled when a host attached a
        pool (second element reports a reuse hit), else freshly mapped."""
        if self.arena_pool is None:
            return ShmArena(shapes), False
        return self.arena_pool.acquire(shapes)

    def _release_arena(self, arena: ShmArena) -> None:
        if self.arena_pool is None:
            arena.close(unlink=True)
        else:
            self.arena_pool.release(arena)

    def _raise_worker_failure(self, queue, procs, window: float = 5.0) -> None:
        """A worker died: surface the error that actually caused it.

        The error queue is drained *before* giving up on the window, and a
        worker that died without enqueueing anything (``SIGKILL``, a hard
        crash) is identified by its exit status instead of being reported
        as an anonymous timeout. Waiting blocks in the queue's timed
        ``get`` (the pipe read wakes us the moment a report lands) — never
        a sleep/poll loop.
        """
        deadline = time.monotonic() + window
        reports: dict[int, str] = {}
        while time.monotonic() < deadline:
            try:
                kind, wid, payload = queue.get(timeout=0.2)
            except Empty:
                if reports:
                    break  # collected the racing siblings too; report now
                if any(not p.is_alive() and p.exitcode for p in procs):
                    break  # died without a report; nothing more is coming
                continue
            if kind == "error":
                reports.setdefault(int(wid), str(payload))
        # One last sweep: reports enqueued between the checks above.
        while True:
            try:
                kind, wid, payload = queue.get_nowait()
            except Empty:
                break
            if kind == "error":
                reports.setdefault(int(wid), str(payload))
        lines = [f"worker {wid}:\n{text}" for wid, text in sorted(reports.items())]
        lines += [
            f"worker {wid} died without a report ({_describe_exit(proc.exitcode)})"
            for wid, proc in enumerate(procs)
            if not proc.is_alive() and proc.exitcode and wid not in reports
        ]
        detail = "\n".join(lines) if lines else "worker died without a report"
        raise SolverError(f"{self.name} engine worker failure:\n{detail}")

    def _parent_wait_all(self, array, threshold: int, queue, procs,
                         desc: str) -> None:
        """Poll ``all(array >= threshold)``; a dead worker fails fast."""
        if np.all(array >= threshold):
            return
        deadline = time.monotonic() + self.timeout
        delay = _POLL_MIN
        while not np.all(array >= threshold):
            if time.monotonic() > deadline:
                raise SolverError(
                    f"{self.name} engine timed out after {self.timeout}s "
                    f"waiting for {desc}"
                )
            if any((not p.is_alive()) and p.exitcode for p in procs):
                self._raise_worker_failure(queue, procs)
            # Same seqlock spin as _wait_value: worker_seq/fission_seq are
            # bare shm counters published without any waitable primitive.
            time.sleep(delay)  # repro: ignore[blocking-sleep]
            delay = min(delay * 2.0, _POLL_MAX)

    def _collect_reports(self, queue, procs, num_workers: int) -> dict[int, dict]:
        """Collect the one end-of-run report each worker enqueues.

        Blocks in timed ``get`` calls (the pipe read wakes us the moment a
        report lands — no poll loop), capped at 0.2 s so a worker dying
        mid-wait is noticed on the next liveness check. Stops early once
        every worker has exited and a grace ``get`` comes back empty: no
        report can arrive from a dead sender.
        """
        reports: dict[int, dict] = {}
        deadline = time.monotonic() + 10.0
        while len(reports) < num_workers and time.monotonic() < deadline:
            all_dead = all(not p.is_alive() for p in procs)
            try:
                kind, wid, payload = queue.get(timeout=0.2)
            except Empty:
                if all_dead:
                    break
                continue
            if kind == "error":
                raise SolverError(f"{self.name} engine worker {wid} failed:\n{payload}")
            reports[wid] = payload
        return reports

    def solve(self, problem: DecomposedProblem, comm: SimComm) -> EngineResult:
        ctx_methods = multiprocessing.get_all_start_methods()
        if "fork" not in ctx_methods:
            raise SolverError(
                f"the {self.name} engine needs the 'fork' start method (workers "
                "inherit tracking products and sweep plans); platform offers "
                f"{ctx_methods}"
            )
        ctx = multiprocessing.get_context("fork")
        timer = StageTimer()
        D = problem.num_domains
        W = self.resolve_workers(D)
        self._prepare_solve(W)
        pack = EdgePack(problem)
        cmfd = problem.cmfd
        cmfd_stats = CmfdStats() if cmfd is not None else None
        shapes = {
            "phi": (problem.num_fsrs_total, problem.num_groups),
            "phi_new": (problem.num_fsrs_total, problem.num_groups),
            "halo": (2, max(pack.num_routes, 1)) + pack.slot_shape,
            "fission": (problem.num_fsrs_total,),
            "prod": (D,),
            "edge_seq": (max(pack.num_edges, 1),),
            "worker_seq": (W,),
            "fission_seq": (W,),
            "grant": (4,),
        }
        if cmfd is not None:
            shapes["currents"] = (max(cmfd.total_pair_rows, 1), problem.num_groups)
            shapes["factors"] = (cmfd.num_cells, problem.num_groups)
        arena, arena_hit = self._acquire_arena(shapes)
        fields: dict[str, Any] = {name: arena[name] for name in shapes}
        phi, phi_new = fields["phi"], fields["phi_new"]
        fission, prod = fields["fission"], fields["prod"]
        worker_seq, fission_seq = fields["worker_seq"], fields["fission_seq"]
        grant = fields["grant"]
        currents, factors = fields.get("currents"), fields.get("factors")
        queue = ctx.Queue()
        owned = [[d for d in range(D) if d % W == w] for w in range(W)]
        procs = [
            ctx.Process(
                target=_worker_loop,
                args=(problem, pack, w, owned[w], self._worker_fields(w, fields),
                      queue, self.timeout, self.pin_workers, self.fault),
                daemon=True,
                name=f"repro-{self.name}-worker-{w}",
            )
            for w in range(W)
        ]

        def issue(epoch: int, keff: float, pnorm: float, mode: int) -> None:
            # Seqlock publish: payload slots first, epoch counter last.
            grant[_KEFF] = keff
            grant[_PNORM] = pnorm
            grant[_STOP] = float(mode)
            grant[_EPOCH] = float(epoch)

        self._logger.info(
            "%s engine: %d domains over %d workers, %d edges (%s shared)",
            self.name, D, W, pack.num_edges, _fmt_bytes(arena.nbytes),
        )
        try:
            with timer.stage("engine_solve"):
                for proc in procs:
                    proc.start()
                phi.fill(1.0)
                production = comm.allreduce(
                    [problem.production(d, problem.block(d, phi)) for d in range(D)]
                )
                if production <= 0.0:
                    raise SolverError("initial flux produces no fission neutrons")
                phi /= production
                keff = 1.0
                monitor = ConvergenceMonitor(
                    keff_tolerance=problem.keff_tolerance,
                    source_tolerance=problem.source_tolerance,
                )
                issue(1, keff, 1.0, RUN)
                for t in range(problem.max_iterations):
                    self._parent_wait_all(
                        worker_seq, t + 1, queue, procs,
                        f"sweeps of iteration {t}",
                    )
                    new_production = comm.allreduce([float(prod[d]) for d in range(D)])
                    pack.account_iteration(comm.stats)
                    if new_production <= 0.0:
                        raise SolverError("fission production vanished")
                    keff = keff * new_production
                    if cmfd is not None:
                        # The coarse solve is parent-side work between the
                        # harvest and the next grant: workers consume the
                        # published factors (and the grant's k_cmfd) in the
                        # normalize phase that the grant releases.
                        with timer.stage("engine_solve/cmfd"):
                            rows = [
                                cmfd.domain_rows(currents, d) for d in range(D)
                            ]
                            keff, mult, step = apply_engine_cmfd(
                                cmfd, problem, rows, phi_new, new_production,
                                keff,
                            )
                            factors[:] = mult
                            cmfd_stats.record(step, 0.0)
                    last = t + 1 >= problem.max_iterations
                    issue(t + 2, keff, new_production, FINAL if last else RUN)
                    self._parent_wait_all(
                        fission_seq, t + 1, queue, procs,
                        f"fission tally of iteration {t}",
                    )
                    monitor.update(keff, fission.copy())
                    if last:
                        break
                    if monitor.converged:
                        # Workers are one speculative sweep ahead; let it
                        # finish and discard it at the next grant wait.
                        issue(t + 3, keff, new_production, HALT)
                        break
                scalar_flux = phi.copy()
                reports = self._collect_reports(queue, procs, W)
            if cmfd_stats is not None:
                cmfd_stats.seconds = timer.duration("engine_solve/cmfd")
            comm_counters = {
                "halo_wait_ns": 0, "neighbor_stalls": 0, "epochs_overlapped": 0,
            }
            for report in reports.values():
                for key, value in report["comm_counters"].items():
                    comm_counters[key] += int(value)
            if self.arena_pool is not None:
                comm_counters["arena_reuse_hits"] = int(arena_hit)
                comm_counters["arena_reuse_misses"] = int(not arena_hit)
            return EngineResult(
                keff=keff,
                scalar_flux=scalar_flux,
                converged=monitor.converged,
                num_iterations=monitor.num_iterations,
                monitor=monitor,
                solve_seconds=timer.duration("engine_solve"),
                cmfd_stats=cmfd_stats.as_dict() if cmfd_stats is not None else {},
                num_workers=W,
                worker_timers=sorted(
                    (wid, report["timers"]) for wid, report in reports.items()
                ),
                comm_counters=comm_counters,
                **self._result_extras(reports),
            )
        finally:
            # Unblock any surviving worker: a HALT grant far in the future
            # satisfies every pending grant wait and stops the loop.
            issue(int(grant[_EPOCH]) + problem.max_iterations + 2,
                  float(grant[_KEFF]), float(grant[_PNORM]), HALT)
            for proc in procs:
                proc.join(timeout=5.0)
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - crash cleanup
                    proc.terminate()
                    proc.join(timeout=5.0)
            del phi, phi_new, fission, prod, worker_seq, fission_seq, grant
            del currents, factors, fields, procs
            self._release_arena(arena)


def _describe_exit(exitcode: int | None) -> str:
    """Human-readable form of a ``Process.exitcode``."""
    if exitcode is None:
        return "still running"
    if exitcode < 0:
        signum = -exitcode
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        return f"killed by {name}"
    return f"exit code {exitcode}"


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n}B"  # pragma: no cover

"""Failure and degenerate-case mechanics of the multiprocess engine under
the sanitizer (arena tests: test_shm.py).

``mp-async-sanitize`` is ``mp-async`` plus hooks: a ``_prepare_solve``
that validates the fault site, per-worker ``TrackedField`` wrappers and a
``_result_extras`` that folds the access logs into a report.
``test_async_engine.py`` pins these mechanics for plain ``mp-async``; this
file pins that the hooks leave them intact — a crashing or killed worker
still surfaces as a ``SolverError``, the degenerate single domain still
solves, and the per-worker timers still ride home next to the events.
"""

import multiprocessing
import os
import signal

import pytest

from repro.engine import Problem2D, SanitizedAsyncMpEngine
from repro.errors import SolverError
from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel import DecomposedSolver, SimComm

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="mp engines require the fork start method",
)


@pytest.fixture()
def grid_2x1(two_group_fissile):
    u = make_homogeneous_universe(two_group_fissile)
    return Geometry(Lattice([[u, u]], 1.5, 1.5))


def make_solver(geometry, nx=2, ny=1, **kw):
    kw.setdefault("max_iterations", 5)
    kw.setdefault("engine", "mp-async-sanitize")
    return DecomposedSolver(
        geometry, nx, ny, num_azim=4, azim_spacing=0.5, num_polar=2, **kw
    )


class ExplodingProblem(Problem2D):
    def sweep_domain(self, d, phi_block, keff):
        if d == 1:
            raise RuntimeError("injected sweep failure")
        return super().sweep_domain(d, phi_block, keff)


class SuicidalProblem(Problem2D):
    def sweep_domain(self, d, phi_block, keff):
        if d == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().sweep_domain(d, phi_block, keff)


class TestMpMechanics:
    @needs_fork
    def test_single_domain_no_routes(self, two_group_fissile):
        """One domain, zero routes: the tracked placeholder halo is never
        touched, so the audit is clean and still logs flux accesses."""
        u = make_homogeneous_universe(two_group_fissile)
        geometry = Geometry(Lattice([[u]], 1.5, 1.5))
        solver = make_solver(geometry, 1, 1, max_iterations=15)
        assert len(solver.routes) == 0
        result = solver.solve()
        assert result.num_workers == 1
        assert result.keff > 0
        assert result.sanitizer.clean, result.sanitizer.render()
        assert result.sanitizer.num_events > 0
        assert result.sanitizer.num_workers == 1

    @needs_fork
    def test_worker_timers_collected(self, grid_2x1):
        solver = make_solver(grid_2x1, max_iterations=8, workers=2)
        result = solver.solve()
        assert [wid for wid, _ in result.worker_timers] == [0, 1]
        for _wid, payload in result.worker_timers:
            assert {"worker_sweep", "worker_exchange"} <= set(payload)
            assert payload["worker_sweep"] > 0.0
        assert result.sanitizer.num_workers == 2

    @needs_fork
    def test_worker_exception_surfaces_as_solver_error(self, grid_2x1):
        """A sweep crash in a sanitized worker must reach the parent as a
        SolverError carrying the worker traceback, not a hang or an
        analysis of a partial event log."""
        solver = make_solver(grid_2x1)
        engine = SanitizedAsyncMpEngine(workers=2, timeout=30.0)
        with pytest.raises(SolverError, match="injected sweep failure"):
            engine.solve(ExplodingProblem(solver), SimComm(2))

    @needs_fork
    def test_killed_worker_identified_promptly(self, grid_2x1):
        """A worker killed mid-epoch (SIGKILL: no exception, no queue
        message) must surface as a SolverError naming the dead worker and
        its signal — within the configured timeout, not a hang."""
        solver = make_solver(grid_2x1)
        engine = SanitizedAsyncMpEngine(workers=2, timeout=5.0)
        with pytest.raises(SolverError, match=r"worker 1 died .*SIGKILL"):
            engine.solve(SuicidalProblem(solver), SimComm(2))

    def test_fork_requirement_reported(self, grid_2x1, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        solver = make_solver(grid_2x1, max_iterations=2)
        with pytest.raises(SolverError, match="mp-async-sanitize.*fork"):
            solver.solve()

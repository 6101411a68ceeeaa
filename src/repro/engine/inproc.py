"""The in-process execution engine: the deterministic reference.

Runs every subdomain sweep sequentially in the calling process and moves
boundary angular flux with the same
:class:`~repro.engine.problem.EdgePack` gather/scatter tables as
``mp-async`` — one in-place copy per directed edge, sweeper to sweeper —
charging the equivalent traffic to the
:class:`~repro.parallel.comm.SimComm` accounting. One sweep per rank per
iteration, boundary flux updated at iteration boundaries (the paper's
Point-Jacobi scheme, Sec. 2.1), eigenvalue updated from a global
reduction. Kept as the equivalence oracle for the multiprocess engine.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import EngineResult, ExecutionEngine
from repro.engine.problem import DecomposedProblem, EdgePack
from repro.errors import SolverError
from repro.io.logging_utils import StageTimer
from repro.parallel.comm import CommStats, SimComm
from repro.solver.cmfd import CmfdStats, apply_engine_cmfd
from repro.solver.convergence import ConvergenceMonitor


def exchange_halo(problem: DecomposedProblem, pack: EdgePack, stats: CommStats) -> None:
    """Copy every route's outgoing flux into its destination slot.

    One gather/scatter per directed edge, straight from the source
    sweeper's ``psi_out_last`` to the destination sweeper's ``psi_in`` —
    the same tables the ``mp-async`` mailboxes pack — then the iteration's
    traffic is charged to ``stats``.
    """
    for e, (src, dst) in enumerate(pack.edge_pairs):
        outgoing = problem.sweeper(src).psi_out_last[pack.edge_source(e)]
        problem.sweeper(dst).psi_in[pack.edge_target(e)] = outgoing
    pack.account_iteration(stats)


class InprocEngine(ExecutionEngine):
    """Single-process reference engine."""

    name = "inproc"

    def solve(self, problem: DecomposedProblem, comm: SimComm) -> EngineResult:
        timer = StageTimer()
        cmfd = problem.cmfd
        cmfd_stats = CmfdStats() if cmfd is not None else None
        pack = EdgePack(problem)
        with timer.stage("engine_solve"):
            ranks = range(problem.num_domains)
            phi = np.ones((problem.num_fsrs_total, problem.num_groups))
            production = comm.allreduce(
                [problem.production(d, problem.block(d, phi)) for d in ranks]
            )
            if production <= 0.0:
                raise SolverError("initial flux produces no fission neutrons")
            phi /= production
            keff = 1.0
            monitor = ConvergenceMonitor(
                keff_tolerance=problem.keff_tolerance,
                source_tolerance=problem.source_tolerance,
            )
            for _ in range(problem.max_iterations):
                phi_new = np.empty_like(phi)
                for d in ranks:
                    problem.block(d, phi_new)[:] = problem.sweep_domain(
                        d, problem.block(d, phi), keff
                    )
                exchange_halo(problem, pack, comm.stats)
                new_production = comm.allreduce(
                    [problem.production(d, problem.block(d, phi_new)) for d in ranks]
                )
                if new_production <= 0.0:
                    raise SolverError("fission production vanished")
                keff = keff * new_production
                phi = phi_new / new_production
                if cmfd is not None:
                    with timer.stage("engine_solve/cmfd"):
                        rows = [
                            problem.sweeper(d).current_tally.take() for d in ranks
                        ]
                        keff, factors, step = apply_engine_cmfd(
                            cmfd, problem, rows, phi_new, new_production, keff
                        )
                        phi *= factors[cmfd.cellmap]
                        for d in ranks:
                            sweeper = problem.sweeper(d)
                            sweeper.current_tally.scale_boundary_flux(
                                sweeper.psi_in, factors
                            )
                        cmfd_stats.record(step, 0.0)
                fission = np.concatenate(
                    [problem.fission_source(d, problem.block(d, phi)) for d in ranks]
                )
                monitor.update(keff, fission)
                if monitor.converged:
                    break
        if cmfd_stats is not None:
            cmfd_stats.seconds = timer.duration("engine_solve/cmfd")
        return EngineResult(
            keff=keff,
            scalar_flux=phi,
            converged=monitor.converged,
            num_iterations=monitor.num_iterations,
            monitor=monitor,
            solve_seconds=timer.duration("engine_solve"),
            cmfd_stats=cmfd_stats.as_dict() if cmfd_stats is not None else {},
        )

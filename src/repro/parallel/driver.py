"""The decomposed transport driver: Jacobi iteration over subdomains.

Runs the paper's stage-4 loop over a spatially decomposed 2D problem:
every subdomain sweeps from its stored incoming boundary flux, outgoing
interface fluxes are exchanged along the precomputed routing table, the
eigenvalue is updated from a global reduction, and the cycle repeats until
the fission source converges. One sweep per rank per iteration, boundary
flux updated at iteration boundaries — exactly the Point-Jacobi behaviour
described in Sec. 2.1.

*How* the iteration executes is delegated to a pluggable execution engine
(:mod:`repro.engine`): ``inproc`` runs every sweep sequentially in this
process, ``mp-async`` distributes subdomains over real OS worker
processes. Both move the halo through the same ``EdgePack`` tables and
charge the same traffic to the driver's
:class:`~repro.parallel.comm.SimComm` accounting, so results and traffic
counts are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_KEFF_TOL, DEFAULT_SOURCE_TOL
from repro.engine.base import EngineResult
from repro.errors import DecompositionError, SolverError
from repro.geometry.decomposition import decompose_lattice_geometry
from repro.geometry.geometry import Geometry
from repro.parallel.domain import DomainSolver
from repro.parallel.comm import SimComm
from repro.parallel.exchange import Route, match_interface_tracks
from repro.solver.cmfd import (
    CmfdProblem,
    bin_fsrs,
    build_coarse_mesh,
    coerce_cmfd,
    local_exit_destinations,
    mesh_spec_for,
    traversal_entry_cells,
)
from repro.solver.expeval import ExponentialEvaluator


@dataclass
class DecomposedResult(EngineResult):
    """Outcome of a decomposed k-eigenvalue solve (2D lattice or 3D z-slabs):
    the engine's result plus the traffic the driver's communicator counted."""

    comm_bytes: int = 0
    comm_messages: int = 0
    comm_allreduce_calls: int = 0
    engine: str = "inproc"

    @classmethod
    def from_engine(cls, engine, problem, comm: SimComm) -> DecomposedResult:
        """Run ``engine`` on ``problem``; the one result builder both
        drivers' ``solve`` call."""
        result = engine.solve(problem, comm)
        return cls(
            **vars(result),
            comm_bytes=comm.stats.bytes_sent,
            comm_messages=comm.stats.messages_sent,
            comm_allreduce_calls=comm.stats.allreduce_calls,
            engine=engine.name,
        )


class DecomposedSolver:
    """Spatially decomposed 2D MOC eigenvalue solver."""

    def __init__(
        self,
        geometry: Geometry,
        domains_x: int,
        domains_y: int,
        num_azim: int = 4,
        azim_spacing: float = 0.5,
        num_polar: int = 4,
        keff_tolerance: float = DEFAULT_KEFF_TOL,
        source_tolerance: float = DEFAULT_SOURCE_TOL,
        max_iterations: int = 500,
        evaluator: ExponentialEvaluator | None = None,
        backend: str | None = None,
        tracer: str | None = None,
        cache=None,
        engine: str | None = None,
        workers: int | None = None,
        timeout: float | None = None,
        pin_workers: bool = False,
        cmfd=None,
    ) -> None:
        self.geometry = geometry
        sub_geometries = decompose_lattice_geometry(geometry, domains_x, domains_y)
        evaluator = evaluator or ExponentialEvaluator.shared()
        self.domains = [
            DomainSolver(
                rank, sub, num_azim=num_azim, azim_spacing=azim_spacing,
                num_polar=num_polar, evaluator=evaluator, backend=backend,
                tracer=tracer, cache=cache,
            )
            for rank, sub in enumerate(sub_geometries)
        ]
        offset = 0
        for dom in self.domains:
            dom.fsr_offset = offset
            offset += dom.num_fsrs
        self.num_fsrs_total = offset
        self.routes: tuple[Route, ...] = match_interface_tracks(
            [d.trackgen for d in self.domains]
        )
        from repro.engine import resolve_engine

        self.engine = resolve_engine(
            engine, workers=workers, timeout=timeout, pin_workers=pin_workers
        )
        self.comm = SimComm(len(self.domains))
        self.keff_tolerance = keff_tolerance
        self.source_tolerance = source_tolerance
        self.max_iterations = int(max_iterations)
        self.volumes = np.concatenate([d.volumes for d in self.domains])
        if not any(np.any(d.terms.nu_sigma_f > 0) for d in self.domains):
            raise SolverError("no fissile region in any domain")
        self.cmfd_problem: CmfdProblem | None = None
        options = coerce_cmfd(cmfd)
        if options is not None:
            self._setup_cmfd(options)

    def _setup_cmfd(self, options) -> None:
        """Build the *global* coarse overlay across the decomposition.

        Sub-lattices keep absolute coordinates, so every domain bins its
        FSRs against the same global mesh spec; bins concatenate in rank
        order into the global cell map. Interface track ends — locally
        terminal, hence vacuum to :func:`local_exit_destinations` — are
        resolved through the route table into the entry cell of the
        matched remote slot, which is what keeps the per-face net current
        (and therefore the coarse solve) identical across engines.
        """
        spec = mesh_spec_for(self.geometry, options)
        mesh = build_coarse_mesh(
            spec, [bin_fsrs(d.geometry, spec) for d in self.domains]
        )
        cells = [self._local_block(d, mesh.cellmap) for d in self.domains]
        entries = [
            traversal_entry_cells(d.sweeper.plan, cells[r])
            for r, d in enumerate(self.domains)
        ]
        exit_dst = [
            local_exit_destinations(d.sweeper.plan, cells[r])
            for r, d in enumerate(self.domains)
        ]
        for route in self.routes:
            exit_dst[route.src_domain][route.src_track, route.src_dir] = entries[
                route.dst_domain
            ][route.dst_track, route.dst_dir]
        for r, dom in enumerate(self.domains):
            dom.sweeper.enable_cmfd_tally(cells[r], exit_dst[r])
        self.cmfd_problem = CmfdProblem(
            mesh,
            np.concatenate([d.terms.sigma_t for d in self.domains]),
            np.concatenate([d.terms.sigma_s for d in self.domains]),
            np.concatenate([d.terms.nu_sigma_f for d in self.domains]),
            np.concatenate([d.terms.chi for d in self.domains]),
            self.volumes,
            options,
        )
        self.cmfd_problem.finalize_pairs(
            [d.sweeper.current_tally.pairs for d in self.domains]
        )

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def _local_block(self, dom: DomainSolver, global_array: np.ndarray) -> np.ndarray:
        return global_array[dom.fsr_offset : dom.fsr_offset + dom.num_fsrs]

    def solve(self) -> DecomposedResult:
        from repro.engine import Problem2D

        return DecomposedResult.from_engine(self.engine, Problem2D(self), self.comm)

    def rebind_materials(self, materials_for) -> None:
        """Re-point every domain at a new per-FSR material list while
        keeping the track laydown, sweep plans and interface routing.

        ``materials_for(sub_geometry)`` returns the new material list for
        one subdomain (a perturbed scenario state — tracking-invariant by
        construction). Boundary fluxes and current tallies are reset and
        the CMFD overlay is rebuilt over the new cross sections, so a
        subsequent :meth:`solve` is bitwise-equal to a freshly constructed
        solver over the same materials.
        """
        from repro.solver.source import SourceTerms

        for dom in self.domains:
            terms = SourceTerms(list(materials_for(dom.geometry)))
            if terms.num_regions != dom.num_fsrs:
                raise DecompositionError(
                    f"rebind materials cover {terms.num_regions} regions, "
                    f"domain {dom.rank} has {dom.num_fsrs} FSRs"
                )
            dom.terms = terms
            dom.sweeper.terms = terms
            dom.sweeper.reset_fluxes()
            if dom.sweeper.current_tally is not None:
                dom.sweeper.current_tally.reset()
        if not any(np.any(d.terms.nu_sigma_f > 0) for d in self.domains):
            raise SolverError("no fissile region in any domain")
        if self.cmfd_problem is not None:
            self._setup_cmfd(self.cmfd_problem.options)

    def fission_rates(self, result: DecomposedResult) -> np.ndarray:
        """Global per-FSR fission rates, unit mean over fissile FSRs."""
        rates = np.concatenate(
            [
                d.terms.fission_rate(
                    self._local_block(d, result.scalar_flux), d.volumes
                )
                for d in self.domains
            ]
        )
        fissile = rates > 0.0
        if not fissile.any():
            raise DecompositionError("no fissile FSR carries a fission rate")
        return rates / rates[fissile].mean()

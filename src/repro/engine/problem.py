"""Engine-facing adapters over the decomposed solvers.

The execution engines are generic over *what* is being decomposed: a 2D
lattice geometry (:class:`~repro.parallel.driver.DecomposedSolver`) or a
3D axial stack (:class:`~repro.parallel.driver3d.ZDecomposedSolver`).
:class:`DecomposedProblem` is the narrow interface they share — per-domain
sweeps, flux blocks, reductions, and the interface routing table — so one
engine implementation serves both drivers.

:class:`EdgePack` precompiles the route table into directed
domain-to-domain *edges* with gather/scatter index arrays. Every engine
moves the halo through it — ``inproc`` copies each edge's slots straight
from the source sweeper to the destination sweeper, ``mp-async`` packs
them into per-edge shared-memory mailboxes, where each edge carries its
own epoch sequence number and a consumer only waits for the edges it
actually reads — and every engine charges the same traffic through
:meth:`EdgePack.account_iteration`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import DecompositionError
from repro.parallel.comm import CommStats


class DecomposedProblem(ABC):
    """What an execution engine needs to know about a decomposed solve."""

    num_domains: int
    num_fsrs_total: int
    num_groups: int
    routes: tuple
    max_iterations: int
    keff_tolerance: float
    source_tolerance: float
    #: Global coarse CMFD problem (:class:`~repro.solver.cmfd.CmfdProblem`)
    #: when the driver enabled acceleration, else ``None``. Engines that
    #: see one run the coarse solve between sweeps: per-domain current
    #: tallies (``sweeper(d).current_tally``) reduce in rank order, the
    #: prolongation multiplies the normalised flux, and each domain's
    #: stored boundary flux is rescaled — all deterministic, so every
    #: engine stays bitwise-equal with CMFD on.
    cmfd = None

    @abstractmethod
    def rows(self, d: int) -> slice:
        """Domain ``d``'s contiguous row range of a global (R_total, ...) array."""

    def block(self, d: int, array: np.ndarray) -> np.ndarray:
        """Domain ``d``'s slice of a global (R_total, ...) array."""
        return array[self.rows(d)]

    @abstractmethod
    def sweep_domain(self, d: int, phi_block: np.ndarray, keff: float) -> np.ndarray:
        """One local transport sweep; returns the new local scalar flux."""

    @abstractmethod
    def production(self, d: int, phi_block: np.ndarray) -> float:
        """Domain ``d``'s fission-production contribution to the allreduce."""

    @abstractmethod
    def fission_source(self, d: int, phi_block: np.ndarray) -> np.ndarray:
        """Domain ``d``'s per-FSR fission emission density (R_d,)."""

    @abstractmethod
    def sweeper(self, d: int):
        """Domain ``d``'s sweep object (``psi_in`` / ``psi_out_last`` slots)."""

    @property
    def slot_shape(self) -> tuple[int, ...]:
        """Trailing shape of one boundary-flux slot (``psi[track, dir]``)."""
        return tuple(self.sweeper(0).psi_in.shape[2:])


class Problem2D(DecomposedProblem):
    """Adapter over :class:`~repro.parallel.driver.DecomposedSolver`."""

    def __init__(self, solver) -> None:
        self._solver = solver
        self.num_domains = len(solver.domains)
        self.num_fsrs_total = solver.num_fsrs_total
        self.num_groups = solver.domains[0].terms.num_groups
        self.routes = tuple(solver.routes)
        self.max_iterations = solver.max_iterations
        self.keff_tolerance = solver.keff_tolerance
        self.source_tolerance = solver.source_tolerance
        self.cmfd = getattr(solver, "cmfd_problem", None)

    def rows(self, d: int) -> slice:
        dom = self._solver.domains[d]
        return slice(dom.fsr_offset, dom.fsr_offset + dom.num_fsrs)

    def sweep_domain(self, d: int, phi_block: np.ndarray, keff: float) -> np.ndarray:
        dom = self._solver.domains[d]
        reduced = dom.terms.reduced_source(phi_block, keff)
        tally = dom.sweep(reduced)
        return dom.finalize(tally, reduced)

    def production(self, d: int, phi_block: np.ndarray) -> float:
        dom = self._solver.domains[d]
        return dom.terms.fission_production(phi_block, dom.volumes)

    def fission_source(self, d: int, phi_block: np.ndarray) -> np.ndarray:
        return self._solver.domains[d].terms.fission_source(phi_block)

    def sweeper(self, d: int):
        return self._solver.domains[d].sweeper


class Problem3D(DecomposedProblem):
    """Adapter over :class:`~repro.parallel.driver3d.ZDecomposedSolver`."""

    def __init__(self, solver) -> None:
        self._solver = solver
        self.num_domains = solver.num_domains
        self.num_fsrs_total = solver.num_fsrs_total
        self.num_groups = solver.num_groups
        self.routes = tuple(solver.routes)
        self.max_iterations = solver.max_iterations
        self.keff_tolerance = solver.keff_tolerance
        self.source_tolerance = solver.source_tolerance
        self.cmfd = getattr(solver, "cmfd_problem", None)

    def rows(self, d: int) -> slice:
        dom = self._solver.domains[d]
        return slice(dom["fsr_offset"], dom["fsr_offset"] + dom["geometry"].num_fsrs)

    def sweep_domain(self, d: int, phi_block: np.ndarray, keff: float) -> np.ndarray:
        dom = self._solver.domains[d]
        reduced = dom["terms"].reduced_source(phi_block, keff)
        tally = dom["sweeper"].sweep(dom["segments"], reduced)
        return dom["sweeper"].finalize_scalar_flux(tally, reduced, dom["volumes"])

    def production(self, d: int, phi_block: np.ndarray) -> float:
        dom = self._solver.domains[d]
        return dom["terms"].fission_production(phi_block, dom["volumes"])

    def fission_source(self, d: int, phi_block: np.ndarray) -> np.ndarray:
        return self._solver.domains[d]["terms"].fission_source(phi_block)

    def sweeper(self, d: int):
        return self._solver.domains[d]["sweeper"]


class EdgePack:
    """Route table grouped by directed domain-to-domain edge.

    The mailbox protocol synchronises per *edge* ``(src_domain,
    dst_domain)``: the producer packs one edge's slots as soon as the
    source domain's sweep finishes and publishes the edge's epoch counter;
    a consumer waits only for the epoch counters of the edges entering the
    domain it is about to sweep. The pack precompiles, per edge, the halo
    slot indices plus the source/destination ``(track, dir)`` gather and
    scatter arrays, and per domain the edge ids it produces and consumes.
    Edge ids are assigned in sorted ``(src, dst)`` order so the layout is
    deterministic across processes.

    Destination slots must be unique — a duplicate would make the
    vectorised halo scatter order-dependent — and are validated here.
    """

    def __init__(self, problem: DecomposedProblem) -> None:
        routes = problem.routes
        self.num_routes = len(routes)
        self.slot_shape = problem.slot_shape
        self.slot_bytes = int(8 * np.prod(self.slot_shape))
        targets = [(r.dst_domain, r.dst_track, r.dst_dir) for r in routes]
        if len(set(targets)) != len(targets):
            raise DecompositionError(
                "route table has duplicate destination slots; the vectorised "
                "halo exchange requires one writer per (domain, track, dir)"
            )
        by_edge: dict[tuple[int, int], list[int]] = {}
        for i, r in enumerate(routes):
            by_edge.setdefault((r.src_domain, r.dst_domain), []).append(i)
        self.edge_pairs: tuple[tuple[int, int], ...] = tuple(sorted(by_edge))
        self.num_edges = len(self.edge_pairs)
        self._edge_routes: list[np.ndarray] = []
        self._edge_src: list[tuple[np.ndarray, np.ndarray]] = []
        self._edge_dst: list[tuple[np.ndarray, np.ndarray]] = []
        out_edges: dict[int, list[int]] = {}
        in_edges: dict[int, list[int]] = {}
        for e, pair in enumerate(self.edge_pairs):
            idx = by_edge[pair]
            self._edge_routes.append(np.array(idx, dtype=np.intp))
            self._edge_src.append(
                (
                    np.array([routes[i].src_track for i in idx], dtype=np.intp),
                    np.array([routes[i].src_dir for i in idx], dtype=np.intp),
                )
            )
            self._edge_dst.append(
                (
                    np.array([routes[i].dst_track for i in idx], dtype=np.intp),
                    np.array([routes[i].dst_dir for i in idx], dtype=np.intp),
                )
            )
            out_edges.setdefault(pair[0], []).append(e)
            in_edges.setdefault(pair[1], []).append(e)
        self._out_edges = {d: tuple(es) for d, es in out_edges.items()}
        self._in_edges = {d: tuple(es) for d, es in in_edges.items()}

    def account_iteration(self, stats: CommStats) -> None:
        """Tally one iteration's halo traffic: one ``slot_bytes`` message
        per route, charged to the route's ``(src, dst)`` pair. The
        aggregate form gives those totals without walking every route."""
        stats.messages_sent += self.num_routes
        stats.bytes_sent += self.num_routes * self.slot_bytes
        for pair, idx in zip(self.edge_pairs, self._edge_routes):
            stats.per_pair_bytes[pair] += len(idx) * self.slot_bytes

    def out_edges(self, d: int) -> tuple[int, ...]:
        """Edge ids whose halo slots domain ``d`` produces."""
        return self._out_edges.get(d, ())

    def in_edges(self, d: int) -> tuple[int, ...]:
        """Edge ids whose halo slots domain ``d`` consumes."""
        return self._in_edges.get(d, ())

    def edge_routes(self, e: int) -> np.ndarray:
        """Halo slot (route) indices carried by edge ``e``."""
        return self._edge_routes[e]

    def edge_source(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """``(tracks, dirs)`` gather indices packing edge ``e``'s slots."""
        return self._edge_src[e]

    def edge_target(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """``(tracks, dirs)`` scatter indices unpacking edge ``e``'s slots."""
        return self._edge_dst[e]

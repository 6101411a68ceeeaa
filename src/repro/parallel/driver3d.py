"""Z-decomposed 3D transport: the paper's spatial decomposition in 3D.

The cuboid decomposition of Sec. 3.2 cuts the reactor in all three axes;
this driver implements the axial cuts end-to-end with *real* 3D sweeps:
the extruded geometry is split into stacked z-slabs, each slab runs the
full 3D MOC machinery over the **shared** radial tracking, and boundary
angular flux crosses the slab interfaces through the pluggable execution
engine each iteration (Jacobi, as in the 2D driver) — in-process copies
or real worker processes over shared memory, both through the same
``EdgePack`` tables and the same :class:`~repro.parallel.comm.SimComm`
traffic accounting.

Sharing one radial tracking between slabs is what modular ray tracing
guarantees on congruent subdomains: every slab sees identical chains, so
an exit through a z-interface lands exactly on an entry slot of the
neighbouring slab's stack (both slabs lay their 3D tracks on the same
per-chain ``s`` grid — the ``n_s`` correction depends only on the chain
length and polar spacing, not the slab height).
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_KEFF_TOL, DEFAULT_SOURCE_TOL
from repro.errors import DecompositionError, SolverError
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.geometry import BoundaryCondition
from repro.parallel.comm import SimComm
from repro.parallel.driver import DecomposedResult
from repro.parallel.exchange import Route
from repro.solver.cmfd import (
    CmfdProblem,
    CurrentTally,
    bin_fsrs_3d,
    build_coarse_mesh,
    coerce_cmfd,
    local_exit_destinations,
    mesh_spec_for_3d,
    traversal_entry_cells,
)
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.source import SourceTerms
from repro.solver.sweep3d import TransportSweep3D
from repro.tracks.generator import TrackGenerator, TrackGenerator3D


def _slab_meshes(mesh: AxialMesh, num_domains: int) -> list[AxialMesh]:
    """Split an axial mesh into contiguous layer groups (absolute z)."""
    nz = mesh.num_layers
    if nz % num_domains != 0:
        raise DecompositionError(
            f"{num_domains} z-domains do not divide {nz} axial layers"
        )
    per = nz // num_domains
    return [
        AxialMesh(mesh.z_edges[d * per : (d + 1) * per + 1])
        for d in range(num_domains)
    ]


class ZDecomposedSolver:
    """Axially decomposed 3D MOC eigenvalue solver over a pluggable engine."""

    def __init__(
        self,
        geometry3d: ExtrudedGeometry,
        num_domains: int,
        num_azim: int = 4,
        azim_spacing: float = 0.5,
        polar_spacing: float = 0.5,
        num_polar: int = 2,
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
        if num_domains < 1:
            raise DecompositionError("need at least one z-domain")
        self.geometry3d = geometry3d
        self.num_domains = int(num_domains)
        slabs = _slab_meshes(geometry3d.axial_mesh, num_domains)
        layers_per = geometry3d.num_layers // num_domains

        # One shared radial tracking for every slab.
        radial = TrackGenerator(
            geometry3d.radial, num_azim=num_azim, azim_spacing=azim_spacing,
            num_polar=num_polar, tracer=tracer, cache=cache,
        ).generate()
        self.radial = radial
        evaluator = evaluator or ExponentialEvaluator.shared()

        self.domains: list[dict] = []
        nz_global = geometry3d.num_layers
        offset = 0
        for d in range(num_domains):
            layer_offset = d * layers_per
            bc_lo = (
                geometry3d.boundary_zmin if d == 0 else BoundaryCondition.INTERFACE
            )
            bc_hi = (
                geometry3d.boundary_zmax
                if d == num_domains - 1
                else BoundaryCondition.INTERFACE
            )
            slab_geom = ExtrudedGeometry(
                geometry3d.radial,
                slabs[d],
                layer_material=self._global_layer_map(layer_offset),
                boundary_zmin=bc_lo,
                boundary_zmax=bc_hi,
                name=f"{geometry3d.name}-z{d}",
            )
            trackgen = TrackGenerator3D(
                slab_geom, num_azim=num_azim, azim_spacing=azim_spacing,
                polar_spacing=polar_spacing, num_polar=num_polar,
                tracer=tracer, cache=cache,
            )
            trackgen.adopt_radial(radial)
            trackgen.generate()
            terms = SourceTerms(list(slab_geom.fsr_materials))
            sweeper = TransportSweep3D(trackgen, terms, evaluator, backend=backend)
            segments = trackgen.trace_all_3d()
            volumes = trackgen.fsr_volumes_3d(segments)
            self.domains.append(
                dict(
                    geometry=slab_geom,
                    trackgen=trackgen,
                    terms=terms,
                    sweeper=sweeper,
                    segments=segments,
                    volumes=volumes,
                    fsr_offset=offset,
                )
            )
            offset += slab_geom.num_fsrs
        self.num_fsrs_total = offset
        self.num_groups = self.domains[0]["terms"].num_groups
        self.routes = self._match_interfaces()
        from repro.engine import resolve_engine

        self.engine = resolve_engine(
            engine, workers=workers, timeout=timeout, pin_workers=pin_workers
        )
        self.comm = SimComm(num_domains)
        self.keff_tolerance = keff_tolerance
        self.source_tolerance = source_tolerance
        self.max_iterations = int(max_iterations)
        self.volumes = np.concatenate([d["volumes"] for d in self.domains])
        if not any(np.any(d["terms"].nu_sigma_f > 0) for d in self.domains):
            raise SolverError("no fissile region in any z-domain")
        self.cmfd_problem: CmfdProblem | None = None
        options = coerce_cmfd(cmfd)
        if options is not None:
            self._setup_cmfd(options)

    def _setup_cmfd(self, options) -> None:
        """Global coarse overlay across the z-slabs.

        Slab axial meshes carry absolute z, so each slab bins its 3D FSRs
        straight into the global coarse grid; slab interface track ends
        resolve to the entry cell of the matched remote slot through the
        :class:`~repro.parallel.exchange.Route` table. Tallies are attached
        pre-built — the z-decomposed driver traces its segments once, so the
        plan is fixed for the whole solve.
        """
        spec = mesh_spec_for_3d(self.geometry3d, options)
        mesh = build_coarse_mesh(
            spec, [bin_fsrs_3d(d["geometry"], spec) for d in self.domains]
        )
        cells = [
            self._local_block(r, mesh.cellmap) for r in range(self.num_domains)
        ]
        plans = [d["sweeper"].plan_for(d["segments"]) for d in self.domains]
        entries = [
            traversal_entry_cells(plan, cell) for plan, cell in zip(plans, cells)
        ]
        exit_dst = [
            local_exit_destinations(plan, cell) for plan, cell in zip(plans, cells)
        ]
        for route in self.routes:
            exit_dst[route.src_domain][route.src_track, route.src_dir] = entries[
                route.dst_domain
            ][route.dst_track, route.dst_dir]
        for r, dom in enumerate(self.domains):
            dom["sweeper"].attach_cmfd_tally(
                CurrentTally(plans[r], cells[r], exit_dst[r], self.num_groups)
            )
        self.cmfd_problem = CmfdProblem(
            mesh,
            np.concatenate([d["terms"].sigma_t for d in self.domains]),
            np.concatenate([d["terms"].sigma_s for d in self.domains]),
            np.concatenate([d["terms"].nu_sigma_f for d in self.domains]),
            np.concatenate([d["terms"].chi for d in self.domains]),
            self.volumes,
            options,
        )
        self.cmfd_problem.finalize_pairs(
            [d["sweeper"].current_tally.pairs for d in self.domains]
        )

    def _global_layer_map(self, layer_offset: int):
        """Map a slab's local layer to the global extruded material."""
        geometry3d = self.geometry3d
        nz = geometry3d.num_layers

        def mapper(mat, local_layer):
            # ``mat`` is the radial material; look up the global override.
            # The radial FSR is unknown here, but the global map only
            # depends on (material, global layer) by construction of
            # ExtrudedGeometry's LayerMaterialMap contract.
            return geometry3d._layer_material(mat, layer_offset + local_layer)

        return mapper

    # ------------------------------------------------------------ matching

    def _match_interfaces(self) -> list[Route]:
        """Pair interface exits with neighbour entries at shared z-planes."""
        routes: list[Route] = []
        for d in range(self.num_domains - 1):
            lower = self.domains[d]["trackgen"]
            upper = self.domains[d + 1]["trackgen"]
            plane = self.domains[d]["geometry"].axial_mesh.zmax
            chains = {c.index: c.length for c in lower.chains}

            def key(chain, polar, s, ds_sign, dz_sign, length):
                s_red = s % length
                if abs(s_red - length) < 1e-9 * max(length, 1.0):
                    s_red = 0.0
                return (chain, polar, round(s_red / (length * 1e-9 + 1e-12)), ds_sign, dz_sign)

            # Entry slots of the upper domain at its zmin, and of the
            # lower domain at its zmax (for downward-moving flux).
            entries: dict[tuple, tuple[int, int, int]] = {}
            for t in upper.tracks3d:
                length = chains[t.chain]
                if t.going_up and abs(t.z0 - plane) < 1e-9 * max(plane, 1.0):
                    # forward entry moving (+s, +z)
                    entries[key(t.chain, t.polar, t.s0, 1, 1, length)] = (d + 1, t.uid, 0)
                if t.going_up is False and abs(t.z1 - plane) < 1e-9 * max(plane, 1.0):
                    # backward entry moving (-s, +z)
                    entries[key(t.chain, t.polar, t.s1, -1, 1, length)] = (d + 1, t.uid, 1)
            down_entries: dict[tuple, tuple[int, int, int]] = {}
            for t in lower.tracks3d:
                length = chains[t.chain]
                if (not t.going_up) and abs(t.z0 - plane) < 1e-9 * max(plane, 1.0):
                    down_entries[key(t.chain, t.polar, t.s0, 1, -1, length)] = (d, t.uid, 0)
                if t.going_up and abs(t.z1 - plane) < 1e-9 * max(plane, 1.0):
                    down_entries[key(t.chain, t.polar, t.s1, -1, -1, length)] = (d, t.uid, 1)

            # Exits of the lower domain moving up through the plane.
            for t in lower.tracks3d:
                length = chains[t.chain]
                if t.going_up and t.interface_end and abs(t.z1 - plane) < 1e-9 * max(plane, 1.0):
                    hit = entries.get(key(t.chain, t.polar, t.s1, 1, 1, length))
                    if hit is None:
                        raise DecompositionError(
                            f"z-interface: no upper partner for track {t.uid} "
                            f"(chain {t.chain}, polar {t.polar}, s={t.s1:.8g})"
                        )
                    routes.append(Route(d, t.uid, 0, *hit))
                if (not t.going_up) and t.interface_start and abs(t.z0 - plane) < 1e-9 * max(plane, 1.0):
                    hit = entries.get(key(t.chain, t.polar, t.s0, -1, 1, length))
                    if hit is None:
                        raise DecompositionError(
                            f"z-interface: no upper partner for backward track {t.uid}"
                        )
                    routes.append(Route(d, t.uid, 1, *hit))
            # Exits of the upper domain moving down through the plane.
            for t in upper.tracks3d:
                length = chains[t.chain]
                if (not t.going_up) and t.interface_end and abs(t.z1 - plane) < 1e-9 * max(plane, 1.0):
                    hit = down_entries.get(key(t.chain, t.polar, t.s1, 1, -1, length))
                    if hit is None:
                        raise DecompositionError(
                            f"z-interface: no lower partner for track {t.uid}"
                        )
                    routes.append(Route(d + 1, t.uid, 0, *hit))
                if t.going_up and t.interface_start and abs(t.z0 - plane) < 1e-9 * max(plane, 1.0):
                    hit = down_entries.get(key(t.chain, t.polar, t.s0, -1, -1, length))
                    if hit is None:
                        raise DecompositionError(
                            f"z-interface: no lower partner for backward track {t.uid}"
                        )
                    routes.append(Route(d + 1, t.uid, 1, *hit))
        return routes

    # --------------------------------------------------------------- solve

    def _local_block(self, d: int, array: np.ndarray) -> np.ndarray:
        dom = self.domains[d]
        return array[dom["fsr_offset"] : dom["fsr_offset"] + dom["geometry"].num_fsrs]

    def solve(self) -> DecomposedResult:
        from repro.engine import Problem3D

        return DecomposedResult.from_engine(self.engine, Problem3D(self), self.comm)

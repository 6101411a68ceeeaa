"""Per-subdomain solver state for decomposed runs."""

from __future__ import annotations

import numpy as np

from repro.geometry.geometry import Geometry
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.source import SourceTerms
from repro.solver.sweep2d import TransportSweep2D
from repro.tracks.generator import TrackGenerator


class DomainSolver:
    """One rank's share of a decomposed 2D transport problem.

    Owns the domain's tracking products, source terms and sweep state.
    Global FSR ids are ``fsr_offset + local_id``; the driver assembles the
    global flux and fission-source vectors from the per-domain blocks.
    """

    def __init__(
        self,
        rank: int,
        geometry: Geometry,
        num_azim: int,
        azim_spacing: float,
        num_polar: int,
        evaluator: ExponentialEvaluator | None = None,
        backend: str | None = None,
        tracer: str | None = None,
        cache=None,
    ) -> None:
        self.rank = int(rank)
        self.geometry = geometry
        self.trackgen = TrackGenerator(
            geometry,
            num_azim=num_azim,
            azim_spacing=azim_spacing,
            num_polar=num_polar,
            tracer=tracer,
            cache=cache,
        ).generate()
        self.terms = SourceTerms(list(geometry.fsr_materials))
        self.sweeper = TransportSweep2D(self.trackgen, self.terms, evaluator, backend=backend)
        self.volumes = self.trackgen.fsr_volumes
        self.fsr_offset = 0  # assigned by the driver

    @property
    def num_fsrs(self) -> int:
        return self.geometry.num_fsrs

    def sweep(self, reduced_source_local: np.ndarray) -> np.ndarray:
        """One local sweep; returns the local delta-psi tally."""
        return self.sweeper.sweep(reduced_source_local)

    def finalize(self, tally: np.ndarray, reduced_source_local: np.ndarray) -> np.ndarray:
        return self.sweeper.finalize_scalar_flux(tally, reduced_source_local, self.volumes)

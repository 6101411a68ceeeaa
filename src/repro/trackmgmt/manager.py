"""The track manager: resident/temporary track split (paper Sec. 4.1).

Tracks are ranked by their estimated segment count (Eq. 4 drives the
estimate — segment counts scale with track span) and the largest are made
*resident* — traced once, kept in device memory — until the resident
budget (6.144 GB in the paper's experiments) is filled. The remaining
*temporary* tracks are re-traced on every sweep and their segments
discarded afterwards. Preferring segment-rich tracks maximises the
regeneration work avoided per resident byte.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_RESIDENT_MEMORY_BYTES
from repro.tracks.generator import TrackGenerator3D
from repro.tracks.segments import SegmentData
from repro.tracks.track import Track3D
from repro.trackmgmt.strategy import BYTES_PER_SEGMENT, StorageStrategy
from repro.solver.sweep3d import TransportSweep3D


def estimate_track_segments(trackgen: TrackGenerator3D, track: Track3D) -> int:
    """Estimate a 3D track's segment count without tracing it.

    Counts the radial breakpoints inside the track's ``s`` span (via binary
    search on the chain's precomputed 2D segmentation) plus the axial
    planes crossed — each breakpoint starts one more segment. This is the
    per-track refinement of the paper's Eq. (4) linear segment model.
    """
    table = trackgen.chain_tables[track.chain]
    z_edges = trackgen.geometry3d.axial_mesh.z_edges
    s0, s1 = track.s0, track.s1
    length = table.length
    if trackgen.is_chain_closed(track.chain):
        # Unrolled span over a periodic table.
        full_wraps = int((s1 - s0) // length)
        radial = full_wraps * (table.num_intervals)
        r0 = s0 % length
        r1 = s1 - (full_wraps * length) - (s0 - r0)
        lo = np.searchsorted(table.bounds, r0, side="right")
        if r1 <= length:
            hi = np.searchsorted(table.bounds, r1, side="left")
            radial += max(int(hi - lo), 0)
        else:
            hi = np.searchsorted(table.bounds, r1 - length, side="left")
            radial += int(table.bounds.size - 1 - lo) + 1 + int(hi - 1)
    else:
        lo = np.searchsorted(table.bounds, s0, side="right")
        hi = np.searchsorted(table.bounds, s1, side="left")
        radial = max(int(hi - lo), 0)
    zlo, zhi = sorted((track.z0, track.z1))
    k_lo = np.searchsorted(z_edges, zlo, side="right")
    k_hi = np.searchsorted(z_edges, zhi, side="left")
    axial = max(int(k_hi - k_lo), 0)
    return radial + axial + 1


class ManagedStorage(StorageStrategy):
    """Manager: resident tracks cached, temporary tracks regenerated."""

    name = "MANAGER"

    def __init__(
        self,
        trackgen: TrackGenerator3D,
        resident_memory_bytes: int = DEFAULT_RESIDENT_MEMORY_BYTES,
    ) -> None:
        super().__init__(trackgen)
        self.resident_memory_bytes_budget = int(resident_memory_bytes)
        tracks = trackgen.tracks3d
        estimates = np.array([estimate_track_segments(trackgen, t) for t in tracks])
        for t, est in zip(tracks, estimates):
            t.est_segments = int(est)
        # Greedy selection: largest estimated segment count first.
        order = np.argsort(-estimates, kind="stable")
        budget_segments = self.resident_memory_bytes_budget // BYTES_PER_SEGMENT
        resident_mask = np.zeros(len(tracks), dtype=bool)
        used = 0
        for uid in order:
            cost = int(estimates[uid])
            if used + cost > budget_segments:
                continue
            used += cost
            resident_mask[uid] = True
        self.resident_mask = resident_mask
        self.estimated_segments = estimates
        self._resident_uids = np.flatnonzero(resident_mask)
        self._temporary_uids = np.flatnonzero(~resident_mask)
        # Resident tracks are traced once, in one batched call; each sweep
        # traces the temporaries the same way and scatters both into place.
        self._resident = trackgen.trace_tracks_3d(self._resident_uids)
        #: Segments per track with the temporaries' entries still zero.
        self._counts = np.zeros(len(tracks), dtype=np.int64)
        self._counts[self._resident_uids] = self._resident.counts()

    # ------------------------------------------------------------- queries

    @property
    def num_resident(self) -> int:
        return int(self.resident_mask.sum())

    @property
    def num_temporary(self) -> int:
        return int((~self.resident_mask).sum())

    @property
    def resident_fraction(self) -> float:
        total = self.resident_mask.size
        return self.num_resident / total if total else 0.0

    def resident_memory_bytes(self) -> int:
        return self._resident.num_segments * BYTES_PER_SEGMENT

    # ------------------------------------------------------------ sweeping

    def _assemble(self) -> SegmentData:
        """Merge resident (cached) and temporary (fresh) segmentations."""
        temporary = self.trackgen.trace_tracks_3d(self._temporary_uids)
        self.regenerated_tracks_total += self._temporary_uids.size
        counts = self._counts.copy()
        counts[self._temporary_uids] = temporary.counts()
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        lengths = np.empty(int(offsets[-1]))
        fsr_ids = np.empty(lengths.size, dtype=np.int32)
        parts = ((self._resident_uids, self._resident), (self._temporary_uids, temporary))
        for uids, part in parts:
            # Each part segment moves by its track's offset shift.
            dest = np.repeat(offsets[uids] - part.offsets[:-1], counts[uids])
            dest += np.arange(dest.size)
            lengths[dest] = part.lengths
            fsr_ids[dest] = part.fsr_ids
        return SegmentData(lengths, fsr_ids, offsets)

    def reference_segments(self) -> SegmentData:
        return self._assemble()

    def sweep(self, sweeper: TransportSweep3D, reduced_source: np.ndarray) -> np.ndarray:
        segments = self._assemble()
        self.sweeps_served += 1
        return sweeper.sweep(segments, reduced_source)

    def __repr__(self) -> str:
        return (
            f"ManagedStorage(resident={self.num_resident}/{self.resident_mask.size}, "
            f"budget={self.resident_memory_bytes_budget} B)"
        )

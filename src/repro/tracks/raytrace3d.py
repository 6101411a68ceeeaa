"""3D ray tracing: on-the-fly axial segmentation (paper Secs. 2.1, 4.1).

A 3D track of a chain spans ``(s0, z0) -> (s1, z1)`` in the chain's
``(s, z)`` space. Its 3D segments are obtained by merging two breakpoint
families along the track parameter:

* radial crossings — the chain's concatenated 2D segment boundaries, and
* axial crossings — the z-planes of the axial mesh,

exactly the two nested loops of the paper's Figure 3(b). Because both
families are precomputed 1D arrays, the merge is a sort rather than a
surface-by-surface walk, mirroring how the GPU kernel streams 2D segments.
:func:`trace_3d_all` does it for a whole set of tracks in one batched pass;
:func:`trace_3d_track` does it for one track and is the kernel's test
oracle.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TrackingError
from repro.geometry.extruded import ExtrudedGeometry
from repro.tracks.chains import Chain
from repro.tracks.segments import SegmentData
from repro.tracks.track import Track2D, Track3D


class ChainSegments:
    """Radial segmentation of one chain: FSR as a function of ``s``.

    ``bounds`` is the strictly increasing array of radial breakpoints from
    0 to the chain length; interval ``i`` (``bounds[i]..bounds[i+1]``) lies
    in radial FSR ``fsrs[i]``.
    """

    __slots__ = ("chain_index", "bounds", "fsrs", "length")

    def __init__(self, chain_index: int, bounds: np.ndarray, fsrs: np.ndarray) -> None:
        self.chain_index = chain_index
        self.bounds = np.ascontiguousarray(bounds, dtype=np.float64)
        self.fsrs = np.ascontiguousarray(fsrs, dtype=np.int32)
        if self.bounds.size != self.fsrs.size + 1:
            raise TrackingError("chain bounds/fsrs size mismatch")
        self.length = float(self.bounds[-1])

    @property
    def num_intervals(self) -> int:
        return int(self.fsrs.size)

    def fsr_at(self, s: float) -> int:
        """Radial FSR at arc length ``s`` (clamped to [0, length])."""
        idx = int(np.searchsorted(self.bounds, s, side="right")) - 1
        idx = min(max(idx, 0), self.fsrs.size - 1)
        return int(self.fsrs[idx])


def chain_segments(
    chain: Chain, tracks2d: list[Track2D], segments2d: SegmentData
) -> ChainSegments:
    """Concatenate a chain's 2D segments into a single ``s``-axis table.

    Fully vectorised: gathers each element's segment range (reversed for
    backward traversals), accumulates breakpoints with a running ``cumsum``
    (sequential, so identical to the scalar sum order), and merges adjacent
    same-FSR intervals with a change mask.
    """
    offsets = segments2d.offsets
    ranges = [
        np.arange(offsets[uid], offsets[uid + 1])
        if forward
        else np.arange(offsets[uid + 1] - 1, offsets[uid] - 1, -1)
        for uid, forward in chain.elements
    ]
    idx = np.concatenate(ranges) if ranges else np.empty(0, dtype=np.int64)
    fsrs = segments2d.fsr_ids[idx]
    ends = np.cumsum(segments2d.lengths[idx])
    if fsrs.size == 0:
        return ChainSegments(chain.index, np.array([0.0]), np.empty(0, dtype=np.int32))
    # A run of equal FSRs collapses to one interval ending at its last end.
    change = np.empty(fsrs.size, dtype=bool)
    change[0] = True
    np.not_equal(fsrs[1:], fsrs[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    last = np.append(starts[1:] - 1, fsrs.size - 1)
    bounds = np.concatenate([[0.0], ends[last]])
    return ChainSegments(chain.index, bounds, fsrs[starts])


def build_chain_tables(
    chains: list[Chain], tracks2d: list[Track2D], segments2d: SegmentData
) -> dict[int, ChainSegments]:
    """Radial tables for every chain in one vectorized pass.

    Equivalent to ``{c.index: chain_segments(c, ...) for c in chains}`` but
    without per-chain numpy call overhead: the gather indices, the running
    breakpoint sums and the same-FSR run merge are all computed over the
    concatenation of every chain at once. Breakpoints come from one global
    ``cumsum`` rebased per chain, which agrees with the per-chain sum to a
    few ulps of the total tracked length — far below the minimum segment
    length, and identical for every caller that uses the same segment data.
    """
    if not chains:
        return {}
    offsets = segments2d.offsets
    num_chains = len(chains)
    el_uid = np.array(
        [uid for c in chains for uid, _ in c.elements], dtype=np.int64
    )
    el_fwd = np.array(
        [fwd for c in chains for _, fwd in c.elements], dtype=bool
    )
    el_counts = np.array([len(c.elements) for c in chains], dtype=np.int64)
    el_chain = np.repeat(np.arange(num_chains, dtype=np.int64), el_counts)

    empty_fsrs = np.empty(0, dtype=np.int32)
    zero_bounds = np.array([0.0])
    if el_uid.size == 0:
        return {c.index: ChainSegments(c.index, zero_bounds, empty_fsrs) for c in chains}

    el_lo = offsets[el_uid].astype(np.int64)
    el_hi = offsets[el_uid + 1].astype(np.int64)
    el_n = el_hi - el_lo
    total = int(el_n.sum())
    if total == 0:
        return {c.index: ChainSegments(c.index, zero_bounds, empty_fsrs) for c in chains}

    # Per-segment gather indices: forward elements walk their range up,
    # backward elements walk it down (same order as the scalar ranges).
    base = np.where(el_fwd, el_lo, el_hi - 1)
    step = np.where(el_fwd, 1, -1)
    first = np.concatenate([[0], np.cumsum(el_n)[:-1]])
    rep = np.repeat(np.arange(el_uid.size, dtype=np.int64), el_n)
    within = np.arange(total, dtype=np.int64) - first[rep]
    idx = base[rep] + within * step[rep]
    fsrs_all = segments2d.fsr_ids[idx]
    seg_chain = el_chain[rep]

    ends_global = np.cumsum(segments2d.lengths[idx])
    chain_first = np.searchsorted(seg_chain, np.arange(num_chains, dtype=np.int64))
    rebase = np.where(
        chain_first > 0, ends_global[np.maximum(chain_first - 1, 0)], 0.0
    )
    ends = ends_global - rebase[seg_chain]

    # Merge same-FSR runs, never across a chain boundary.
    change = np.empty(total, dtype=bool)
    change[0] = True
    change[1:] = (fsrs_all[1:] != fsrs_all[:-1]) | (seg_chain[1:] != seg_chain[:-1])
    istart = np.flatnonzero(change)
    ilast = np.append(istart[1:] - 1, total - 1)
    i_chain = seg_chain[istart]
    i_fsr = fsrs_all[istart].astype(np.int32)
    i_end = ends[ilast]
    num_intervals = istart.size

    # One flat bounds array holding [0.0, ends...] per chain, so the
    # per-chain tables below are pure slices.
    i_lo = np.searchsorted(i_chain, np.arange(num_chains, dtype=np.int64), side="left")
    i_hi = np.searchsorted(i_chain, np.arange(num_chains, dtype=np.int64), side="right")
    bounds_all = np.empty(num_intervals + num_chains)
    bounds_all[i_lo + np.arange(num_chains, dtype=np.int64)] = 0.0
    bounds_all[np.arange(num_intervals, dtype=np.int64) + i_chain + 1] = i_end

    lo_l = i_lo.tolist()
    hi_l = i_hi.tolist()
    tables: dict[int, ChainSegments] = {}
    for pos, chain in enumerate(chains):
        lo, hi = lo_l[pos], hi_l[pos]
        tables[chain.index] = ChainSegments(
            chain.index, bounds_all[lo + pos : hi + pos + 1], i_fsr[lo:hi]
        )
    return tables


def trace_3d_track(
    track: Track3D,
    chain_segs: ChainSegments,
    geometry3d: ExtrudedGeometry,
    wrap: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Segment one 3D track; returns ``(fsr3d_ids, lengths)``.

    ``wrap`` indicates a closed chain whose ``s`` coordinate is periodic
    (the track's ``s1`` may exceed the chain length).
    """
    length_s = chain_segs.length
    z_edges = geometry3d.axial_mesh.z_edges
    nz = geometry3d.num_layers
    s0, z0, s1, z1 = track.s0, track.z0, track.s1, track.z1
    ds = s1 - s0
    dz = z1 - z0
    total = math.hypot(ds, dz)
    if total <= 0.0:
        raise TrackingError(f"3D track {track.uid} has zero length")

    # Breakpoints as fractions t in (0, 1) of the track parameter.
    t_breaks: list[np.ndarray] = []
    if ds > 1e-14:
        if wrap:
            # Unroll the periodic radial table across the wrapped span.
            lo_wraps = math.floor(s0 / length_s)
            hi_wraps = math.floor(s1 / length_s)
            crossings = []
            for w in range(lo_wraps, hi_wraps + 1):
                shifted = chain_segs.bounds[1:-1] + w * length_s
                crossings.append(shifted)
                if w > lo_wraps:
                    crossings.append(np.array([w * length_s]))
            s_cross = np.concatenate(crossings) if crossings else np.empty(0)
        else:
            s_cross = chain_segs.bounds[1:-1]
        mask = (s_cross > s0 + 1e-12) & (s_cross < s1 - 1e-12)
        t_breaks.append((s_cross[mask] - s0) / ds)
    if abs(dz) > 1e-14:
        inner = z_edges[1:-1]
        zlo, zhi = (z0, z1) if dz > 0 else (z1, z0)
        mask = (inner > zlo + 1e-12) & (inner < zhi - 1e-12)
        t_breaks.append((inner[mask] - z0) / dz)

    if t_breaks:
        t = np.unique(np.concatenate([np.array([0.0, 1.0])] + t_breaks))
    else:
        t = np.array([0.0, 1.0])
    t.sort()
    mids = 0.5 * (t[:-1] + t[1:])
    lengths = np.diff(t) * total

    s_mid = s0 + mids * ds
    if wrap:
        s_mid = np.mod(s_mid, length_s)
    z_mid = z0 + mids * dz
    radial_idx = np.searchsorted(chain_segs.bounds, s_mid, side="right") - 1
    radial_idx = np.clip(radial_idx, 0, chain_segs.num_intervals - 1)
    radial_fsrs = chain_segs.fsrs[radial_idx].astype(np.int64)
    layers = np.searchsorted(z_edges, z_mid, side="right") - 1
    layers = np.clip(layers, 0, nz - 1)
    fsr3d = radial_fsrs * nz + layers
    keep = lengths > 1e-13
    return fsr3d[keep].astype(np.int64), lengths[keep]


#: Tracks segmented per kernel pass. Bounds the kernel's transient arrays
#: (a few times the chunk's segment count) independently of the laydown;
#: chunk-local track ids must fit the int16 radix sort.
CHUNK_TRACKS = 512

#: The tolerances :func:`trace_3d_track` applies; the kernel must apply the
#: same values for its output to stay byte-identical.
_PARALLEL_TOL = 1e-14
_BREAK_TOL = 1e-12
_MIN_LENGTH = 1e-13


class TrackTable3D:
    """Per-track scalars of every 3D track plus the flattened chain tables.

    The batched kernel's only cached state: one entry per 3D track (chain,
    end points, ``ds``/``dz``/3D length, periodic wrap range) and one entry
    per chain (length and slice of the flat tables). ``bounds`` holds every
    chain's radial breakpoints back to back, followed by a ``+inf``
    sentinel so searches may read one slot past a chain; ``fsrs[j]`` is
    the radial FSR of interval ``bounds[j]..bounds[j+1]``. ``keys`` are the
    bounds moved by a per-chain ``chain_offset`` so that all chains sort
    into one increasing array: one ``searchsorted`` over it gives every
    query's position within its own chain to within rounding, which
    :func:`_first_true` then settles exactly. The size is O(tracks +
    chain-table entries), never O(segments).
    """

    __slots__ = (
        "chain", "s0", "s1", "z0", "z1", "ds", "dz", "total", "wrap", "wrap_lo",
        "wrap_hi", "chain_start", "chain_size", "chain_length", "chain_offset",
        "bounds", "fsrs", "keys",
    )

    def __init__(
        self,
        tracks3d: list[Track3D],
        chains: list[Chain],
        chain_tables: dict[int, ChainSegments],
    ) -> None:
        n = len(tracks3d)
        self.chain = np.fromiter((t.chain for t in tracks3d), np.int64, n)
        self.s0 = np.fromiter((t.s0 for t in tracks3d), np.float64, n)
        self.s1 = np.fromiter((t.s1 for t in tracks3d), np.float64, n)
        self.z0 = np.fromiter((t.z0 for t in tracks3d), np.float64, n)
        self.z1 = np.fromiter((t.z1 for t in tracks3d), np.float64, n)
        self.ds = self.s1 - self.s0
        self.dz = self.z1 - self.z0
        # math.hypot, not np.hypot: the two may round differently.
        self.total = np.fromiter(
            (math.hypot(a, b) for a, b in zip(self.ds.tolist(), self.dz.tolist())),
            np.float64, n,
        )

        num_chains = len(chains)
        tables = [chain_tables[c.index] for c in chains]
        sizes = np.array([t.bounds.size for t in tables], dtype=np.int64)
        self.chain_size = sizes
        self.chain_start = np.zeros(num_chains, dtype=np.int64)
        np.cumsum(sizes[:-1], out=self.chain_start[1:])
        self.chain_length = np.array([t.length for t in tables], dtype=np.float64)
        self.bounds = np.concatenate([t.bounds for t in tables] + [np.array([np.inf])])
        # Chain c's keys lie in [offset_c, offset_c + L_c]; the gap of 1
        # keeps consecutive chains apart.
        self.chain_offset = np.cumsum(self.chain_length + 1.0) - (self.chain_length + 1.0)
        self.keys = self.bounds[:-1] + np.repeat(self.chain_offset, sizes)
        # One slot per bound; the slot of each chain's last bound is unused.
        self.fsrs = np.concatenate(
            [np.append(t.fsrs, -1) for t in tables] + [np.array([-1])]
        ).astype(np.int64)

        closed = np.array([c.closed for c in chains], dtype=bool)
        self.wrap = closed[self.chain]
        length = self.chain_length[self.chain]
        self.wrap_lo = np.where(self.wrap, np.floor(self.s0 / length), 0).astype(np.int64)
        self.wrap_hi = np.where(self.wrap, np.floor(self.s1 / length), 0).astype(np.int64)

    @property
    def num_tracks(self) -> int:
        return int(self.chain.size)

    def nbytes(self) -> int:
        """Bytes held by the cached arrays."""
        return int(sum(getattr(self, name).nbytes for name in self.__slots__))


def _first_true(guess: np.ndarray, lo: np.ndarray, hi: np.ndarray, pred) -> np.ndarray:
    """Per entry, the first index in ``[lo, hi)`` where the monotone
    (False...True) predicate holds, else ``hi``.

    Starts from ``guess`` and steps down while the predicate already holds
    one index lower, then up while it does not hold yet; a guess off by
    rounding settles in a step or two. ``pred`` is evaluated on every entry
    at ``j - 1`` and ``j`` for ``j`` in ``[lo, hi]``; callers make those
    indices readable.
    """
    j = np.clip(guess, lo, hi)
    while True:
        step = (j > lo) & pred(j - 1)
        if not step.any():
            break
        j = j - step
    while True:
        step = (j < hi) & ~pred(j)
        if not step.any():
            return j
        j = j + step


def _ramp(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, k)`` for the ragged expansion ``owner`` repeated
    ``counts[owner]`` times with ``k = 0..counts[owner]-1``."""
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size, dtype=np.int64) - starts[owner]


def _trace_chunk(
    table: TrackTable3D, z_edges: np.ndarray, uids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment the tracks ``uids``; returns ``(counts, fsr3d, lengths)``.

    Reproduces :func:`trace_3d_track` operation for operation over the
    whole chunk: the same breakpoint values and masks, the same sorted
    merge, and the same midpoint lookups.
    """
    n = uids.size
    chain = table.chain[uids]
    s0, s1 = table.s0[uids], table.s1[uids]
    z0, z1 = table.z0[uids], table.z1[uids]
    ds, dz, total = table.ds[uids], table.dz[uids], table.total[uids]
    if np.any(total <= 0.0):
        bad = int(uids[np.flatnonzero(total <= 0.0)[0]])
        raise TrackingError(f"3D track {bad} has zero length")
    start = table.chain_start[chain]
    bounds = table.bounds

    # Radial crossings: per (track, wrap) pair, the window of chain bounds
    # shifted by w*L that passes the oracle's strict +-1e-12 masks. The
    # shifted values are monotone in the bound index, so each window edge
    # is the first index where the exact masked comparison flips. Bound 0
    # (the chain seam at w*L) joins the window for every wrap after the
    # first.
    wrap_lo = table.wrap_lo[uids]
    nwrap = np.where(ds > _PARALLEL_TOL, table.wrap_hi[uids] - wrap_lo + 1, 0)
    p_trk, p_k = _ramp(nwrap)
    p_w = wrap_lo[p_trk] + p_k
    p_shift = p_w * table.chain_length[chain[p_trk]]
    p_start = start[p_trk]
    p_first = p_start + (p_k == 0)
    p_last = p_start + table.chain_size[chain[p_trk]] - 1
    above = s0[p_trk] + _BREAK_TOL
    below = s1[p_trk] - _BREAK_TOL
    p_key = table.chain_offset[chain[p_trk]] - p_shift
    j_lo = _first_true(
        np.searchsorted(table.keys, above + p_key, side="right"), p_first, p_last,
        lambda j: bounds[j] + p_shift > above,
    )
    j_hi = _first_true(
        np.searchsorted(table.keys, below + p_key, side="left"), p_first, p_last,
        lambda j: bounds[j] + p_shift >= below,
    )
    c_pair, c_k = _ramp(np.maximum(j_hi - j_lo, 0))
    r_trk = p_trk[c_pair]
    s_cross = bounds[j_lo[c_pair] + c_k] + p_shift[c_pair]
    t_radial = (s_cross - s0[r_trk]) / ds[r_trk]

    # Axial crossings: inner z-planes strictly inside the track's z span.
    inner = z_edges[1:-1]
    zlo = np.where(dz > 0, z0, z1)
    zhi = np.where(dz > 0, z1, z0)
    k_lo = np.searchsorted(inner, zlo + _BREAK_TOL, side="right")
    k_hi = np.searchsorted(inner, zhi - _BREAK_TOL, side="left")
    a_count = np.where(np.abs(dz) > _PARALLEL_TOL, np.maximum(k_hi - k_lo, 0), 0)
    a_trk, a_k = _ramp(a_count)
    t_axial = (inner[k_lo[a_trk] + a_k] - z0[a_trk]) / dz[a_trk]

    # np.unique per track is a sort on (track, t): a sort on t, then a
    # stable (radix, on int16) sort on the track. Its de-duplication is
    # implicit: a repeated t makes an exactly zero-length segment, which
    # the minimum-length filter below drops like the oracle's merge does.
    local = np.arange(n, dtype=np.int16)
    trk = np.concatenate([local, local, r_trk.astype(np.int16), a_trk.astype(np.int16)])
    t = np.concatenate([np.zeros(n), np.ones(n), t_radial, t_axial])
    order = np.argsort(t)
    order = order[np.argsort(trk[order], kind="stable")]
    trk = trk[order].astype(np.int64)
    t = t[order]

    pair = trk[1:] == trk[:-1]
    seg = trk[:-1][pair]
    ta = t[:-1][pair]
    tb = t[1:][pair]
    mids = 0.5 * (ta + tb)
    lengths = (tb - ta) * total[seg]

    s_mid = s0[seg] + mids * ds[seg]
    wrapped = table.wrap[uids][seg]
    s_mid[wrapped] = np.mod(s_mid[wrapped], table.chain_length[chain[seg]][wrapped])
    z_mid = z0[seg] + mids * dz[seg]
    seg_start = start[seg]
    seg_size = table.chain_size[chain[seg]]
    above_mid = _first_true(
        np.searchsorted(table.keys, s_mid + table.chain_offset[chain[seg]], side="right"),
        seg_start, seg_start + seg_size, lambda j: bounds[j] > s_mid,
    )
    radial_idx = np.clip(above_mid - seg_start - 1, 0, seg_size - 2)
    nz = z_edges.size - 1
    layers = np.clip(np.searchsorted(z_edges, z_mid, side="right") - 1, 0, nz - 1)
    fsr3d = table.fsrs[seg_start + radial_idx] * nz + layers

    kept = lengths > _MIN_LENGTH
    counts = np.bincount(seg[kept], minlength=n)
    return counts, fsr3d[kept], lengths[kept]


def trace_3d_all(
    table: TrackTable3D,
    geometry3d: ExtrudedGeometry,
    uids: np.ndarray | None = None,
) -> SegmentData:
    """Segment a set of 3D tracks in one batched kernel.

    Every 3D segmentation goes through here: EXP/CCM setup, OTF
    regeneration on every sweep, the Manager's resident and temporary
    sets, and each slab of the z-decomposed driver. ``uids`` selects the
    tracks (in the order given; default all, in uid order); track ``i`` of
    the result is ``uids[i]``. The result is byte-identical to
    concatenating :func:`trace_3d_track` over the same tracks. Tracks are
    processed :data:`CHUNK_TRACKS` at a time so transient memory stays
    bounded however many tracks are requested.
    """
    if uids is None:
        uids = np.arange(table.num_tracks, dtype=np.int64)
    uids = np.asarray(uids, dtype=np.int64)
    z_edges = geometry3d.axial_mesh.z_edges
    counts: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    fsrs: list[np.ndarray] = [np.empty(0, dtype=np.int32)]
    lengths: list[np.ndarray] = [np.empty(0)]
    for lo in range(0, uids.size, CHUNK_TRACKS):
        c, f, ln = _trace_chunk(table, z_edges, uids[lo : lo + CHUNK_TRACKS])
        counts.append(c)
        fsrs.append(f.astype(np.int32))
        lengths.append(ln)
    offsets = np.zeros(uids.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=offsets[1:])
    return SegmentData(np.concatenate(lengths), np.concatenate(fsrs), offsets)

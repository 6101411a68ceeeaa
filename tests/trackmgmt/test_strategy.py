"""Tests for EXP/OTF storage strategies."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solver import SourceTerms, TransportSweep3D
from repro.trackmgmt import ExplicitStorage, OnTheFlyStorage, make_strategy
from repro.trackmgmt.strategy import BYTES_PER_SEGMENT
from repro.tracks import SegmentData


@pytest.fixture()
def sweeper(small_trackgen_3d, two_group_fissile):
    terms = SourceTerms([two_group_fissile] * small_trackgen_3d.geometry3d.num_fsrs)
    return TransportSweep3D(small_trackgen_3d, terms)


class TestExplicit:
    def test_memory_accounting(self, small_trackgen_3d):
        exp = ExplicitStorage(small_trackgen_3d)
        segments = exp.reference_segments()
        assert exp.resident_memory_bytes() == segments.num_segments * BYTES_PER_SEGMENT

    def test_no_regeneration(self, small_trackgen_3d, sweeper):
        exp = ExplicitStorage(small_trackgen_3d)
        q = np.zeros((sweeper.terms.num_regions, 2))
        for _ in range(3):
            exp.sweep(sweeper, q)
        assert exp.regenerated_tracks_total == 0
        assert exp.sweeps_served == 3

    def test_same_segments_object_reused(self, small_trackgen_3d):
        exp = ExplicitStorage(small_trackgen_3d)
        assert exp.reference_segments() is exp.reference_segments()


class TestOnTheFly:
    def test_zero_resident_memory(self, small_trackgen_3d):
        otf = OnTheFlyStorage(small_trackgen_3d)
        assert otf.resident_memory_bytes() == 0

    def test_regenerates_every_sweep(self, small_trackgen_3d, sweeper):
        otf = OnTheFlyStorage(small_trackgen_3d)
        q = np.zeros((sweeper.terms.num_regions, 2))
        otf.sweep(sweeper, q)
        otf.sweep(sweeper, q)
        assert otf.regenerated_tracks_total == 2 * small_trackgen_3d.num_tracks_3d

    def test_stays_on_the_fly(self, small_trackgen_3d, sweeper):
        """After several sweeps OTF holds no segments, and the batched
        kernel's cache is O(tracks) plus the chain tables."""
        tg = small_trackgen_3d
        otf = OnTheFlyStorage(tg)
        q = np.full((sweeper.terms.num_regions, 2), 0.3)
        for _ in range(3):
            otf.sweep(sweeper, q)
        assert otf.resident_memory_bytes() == 0
        assert not any(isinstance(v, SegmentData) for v in vars(otf).values())
        chain_bytes = sum(t.bounds.nbytes + t.fsrs.nbytes for t in tg.chain_tables.values())
        assert tg.track_table_3d.nbytes() <= 128 * tg.num_tracks_3d + 2 * chain_bytes + 64

    def test_same_physics_as_exp(self, small_trackgen_3d, sweeper):
        exp = ExplicitStorage(small_trackgen_3d)
        otf = OnTheFlyStorage(small_trackgen_3d)
        q = np.full((sweeper.terms.num_regions, 2), 0.4)
        tally_exp = exp.sweep(sweeper, q)
        sweeper.reset_fluxes()
        tally_otf = otf.sweep(sweeper, q)
        np.testing.assert_allclose(tally_exp, tally_otf, rtol=1e-12)


class TestFactory:
    def test_names(self, small_trackgen_3d):
        assert make_strategy("EXP", small_trackgen_3d).name == "EXP"
        assert make_strategy("otf", small_trackgen_3d).name == "OTF"
        assert make_strategy("Manager", small_trackgen_3d).name == "MANAGER"

    def test_unknown(self, small_trackgen_3d):
        with pytest.raises(SolverError):
            make_strategy("NOPE", small_trackgen_3d)

    def test_manager_budget_passthrough(self, small_trackgen_3d):
        strategy = make_strategy("MANAGER", small_trackgen_3d, resident_memory_bytes=777)
        assert strategy.resident_memory_bytes_budget == 777

"""The shm race sanitizer: clean audits stay bitwise, injected faults fire.

Four claims pinned here:

1. the epoch analysis behaves on hand-built event logs, so the
   detector's semantics are testable without spawning processes;
2. ``mp-async-sanitize`` runs the production worker body itself — not an
   instrumented copy — so what it audits is what runs under ``mp-async``;
3. on the 2D pin lattice and an axial 3D stack it reports **zero**
   findings and is bitwise identical to ``inproc`` — instrumentation must
   not perturb the schedule or the numbers;
4. a wrong-parity mailbox fault — reading the halo buffer the producers
   are currently writing — trips both rules.
"""

import multiprocessing

import numpy as np
import pytest

from repro.engine import FaultSpec, SanitizedAsyncMpEngine, analyze_events
from repro.engine import async_mp
from repro.engine.registry import engine_names, resolve_engine
from repro.engine.sanitize import AccessEvent
from repro.errors import ConfigError, SanitizerError
from tests.engine.test_equivalence import extruded, pin_lattice, solve_2d, solve_3d

__all__ = ["pin_lattice"]  # re-exported fixture


def ev(worker, epoch, kind, array, *indices):
    return AccessEvent(
        worker=worker, epoch=epoch, kind=kind, array=array, indices=indices
    )


class TestAnalyzer:
    """Detector semantics on synthetic logs — no processes involved."""

    def test_disjoint_same_epoch_writes_are_clean(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "phi_new", 0, 1)],
            1: [ev(1, 1, "w", "phi_new", 2, 3)],
        })
        assert report.clean
        assert report.num_events == 2
        assert report.num_workers == 2

    def test_cross_worker_write_write_overlap_flagged(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "phi_new", 0, 1)],
            1: [ev(1, 1, "w", "phi_new", 1, 2)],
        })
        assert [f.rule for f in report.findings] == ["same-epoch-overlap"]
        assert report.findings[0].workers == (0, 1)
        assert 1 in report.findings[0].indices

    def test_cross_worker_write_read_overlap_flagged(self):
        report = analyze_events({
            0: [ev(0, 3, "w", "halo", 5)],
            1: [ev(1, 3, "r", "halo", 5)],
        })
        assert "same-epoch-overlap" in {f.rule for f in report.findings}

    def test_same_worker_overlap_is_fine(self):
        report = analyze_events({0: [ev(0, 1, "w", "phi", 0), ev(0, 1, "r", "phi", 0)]})
        assert report.clean

    def test_different_epochs_do_not_conflict(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "phi_new", 0)],
            1: [ev(1, 2, "w", "phi_new", 0)],
        })
        assert report.clean

    def test_halo_read_of_unpublished_slot_flagged(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "halo", 0)],
            1: [ev(1, 2, "r", "halo", 0, 7)],
        })
        assert [f.rule for f in report.findings] == ["unpublished-read"]
        assert report.findings[0].indices == (7,)

    def test_halo_read_of_published_slot_clean(self):
        report = analyze_events({
            0: [ev(0, 1, "w", "halo", 0, 1)],
            1: [ev(1, 2, "r", "halo", 0)],
        })
        assert report.clean

    def test_report_renders_fault_and_findings(self):
        fault = FaultSpec(worker=1)
        report = analyze_events(
            {0: [ev(0, 1, "w", "halo", 0)], 1: [ev(1, 1, "w", "halo", 0)]},
            fault=fault,
        )
        text = report.render()
        assert "1 finding(s)" in text
        assert "same-epoch-overlap" in text
        assert "worker=1" in text


class TestFaultSpec:
    def test_from_seed_is_deterministic(self):
        a = FaultSpec.from_seed(1234, 4)
        b = FaultSpec.from_seed(1234, 4)
        assert a == b
        assert 0 <= a.worker < 4
        assert a.iteration == 1

    def test_fault_and_seed_are_mutually_exclusive(self):
        """Rejected at construction even when the two name the same site."""
        fault = FaultSpec.from_seed(1, 2)
        with pytest.raises(SanitizerError, match="not both"):
            SanitizedAsyncMpEngine(workers=2, fault_seed=1, fault=fault)

    def test_fault_worker_out_of_range_rejected(self, two_group_fissile):
        """Off by one on a z decomposition: two workers are 0 and 1."""
        engine = SanitizedAsyncMpEngine(workers=2, fault=FaultSpec(worker=2))
        with pytest.raises(SanitizerError, match="worker 2"):
            solve_3d(extruded(two_group_fissile, layers=4), engine,
                     num_domains=4, workers=2)


class TestRegistry:
    def test_mp_async_sanitize_resolves_by_name(self):
        engine = resolve_engine("mp-async-sanitize")
        assert isinstance(engine, SanitizedAsyncMpEngine)
        assert engine.name == "mp-async-sanitize"

    @pytest.mark.parametrize("retired", ["mp", "mp-sanitize"])
    def test_retired_engines_rejected(self, retired):
        with pytest.raises(ConfigError, match="unknown execution engine") as exc:
            resolve_engine(retired)
        assert str(sorted(engine_names())) in str(exc.value)

    def test_runs_the_production_worker_body(self, pin_lattice, monkeypatch):
        """Every sanitized worker process runs ``async_mp._worker_loop``
        itself, so the audit covers the loop that runs in production."""
        fork = type(multiprocessing.get_context("fork"))
        targets = []

        class RecordingProcess(fork.Process):
            def __init__(self, *args, **kwargs):
                targets.append(kwargs["target"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fork, "Process", RecordingProcess)
        _, result = solve_2d(pin_lattice, "mp-async-sanitize", workers=2)
        assert result.sanitizer.clean, result.sanitizer.render()
        assert len(targets) == 2
        assert all(target is async_mp._worker_loop for target in targets)


class TestCleanAudit:
    """Clean audits on schedules :class:`TestAsyncCleanAudit` leaves out."""

    def test_pin_lattice_clean_and_bitwise(self, pin_lattice):
        """Uneven ownership: three workers over four domains, so worker 0
        both publishes and consumes edges between its own domains."""
        _, oracle = solve_2d(pin_lattice, "inproc")
        _, result = solve_2d(pin_lattice, "mp-async-sanitize", workers=3)
        assert result.num_workers == 3
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.num_iterations == oracle.num_iterations
        report = result.sanitizer
        assert report.clean, report.render()
        assert report.num_workers == 3
        assert report.fault is None

    def test_axial_3d_clean_and_bitwise(self, two_group_fissile):
        """CMFD on, one worker per z domain: the prolongation rescale of
        the unpacked halo is audited too."""
        g3 = extruded(two_group_fissile, layers=4)
        _, oracle = solve_3d(g3, "inproc", num_domains=4, cmfd=True)
        _, result = solve_3d(g3, "mp-async-sanitize", num_domains=4, cmfd=True)
        assert result.num_workers == 4
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.sanitizer.clean, result.sanitizer.render()
        assert result.sanitizer.num_events > 0


class TestFaultInjection:
    """Fault sites and layouts beyond :class:`TestAsyncFaultInjection`'s."""

    def test_barrier_skip_fires_detector(self, pin_lattice):
        """The fault skips the faulty worker's synchronisation before its
        halo unpack (its per-edge waits, the mailbox protocol's barrier)
        and both rules fire with one worker per domain."""
        engine = SanitizedAsyncMpEngine(workers=4, fault_seed=1234)
        _, result = solve_2d(pin_lattice, engine, workers=4)
        report = result.sanitizer
        assert not report.clean
        rules = {f.rule for f in report.findings}
        assert "same-epoch-overlap" in rules
        assert "unpublished-read" in rules
        assert report.fault == FaultSpec.from_seed(1234, 4)

    def test_explicit_fault_site_fires(self, pin_lattice):
        """A fault after several clean iterations is still caught."""
        fault = FaultSpec(worker=1, iteration=3)
        engine = SanitizedAsyncMpEngine(workers=2, fault=fault)
        _, result = solve_2d(pin_lattice, engine, workers=2)
        report = result.sanitizer
        assert not report.clean
        assert {f.epoch for f in report.findings} >= {3}

    def test_fault_does_not_deadlock_and_reports_fault_site(self, two_group_fissile):
        """Skipping the edge waits leaves every counter published, so the
        faulty 3D run terminates and the report carries the fault site."""
        fault = FaultSpec(worker=1, iteration=1)
        engine = SanitizedAsyncMpEngine(workers=2, fault=fault)
        _, result = solve_3d(extruded(two_group_fissile, layers=4), engine,
                             num_domains=4, workers=2)
        assert result.sanitizer.fault == fault
        assert not result.sanitizer.clean


class TestAsyncCleanAudit:
    """The mailbox/epoch protocol of ``mp-async`` proven race-free."""

    def test_pin_lattice_clean_and_bitwise(self, pin_lattice):
        """Acceptance: the relaxed protocol (no global barriers, seqlock
        mailbox publishes) logs zero findings and stays bitwise."""
        _, oracle = solve_2d(pin_lattice, "inproc")
        _, result = solve_2d(pin_lattice, "mp-async-sanitize")
        assert result.engine == "mp-async-sanitize"
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.num_iterations == oracle.num_iterations
        report = result.sanitizer
        assert report is not None
        assert report.clean, report.render()
        assert report.num_events > 0
        assert report.fault is None
        # The instrumented run still reports the protocol counters.
        assert set(result.comm_counters) == {
            "halo_wait_ns", "neighbor_stalls", "epochs_overlapped"
        }

    def test_axial_3d_clean_and_bitwise(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=4)
        _, oracle = solve_3d(g3, "inproc", num_domains=4)
        _, result = solve_3d(g3, "mp-async-sanitize", num_domains=4, workers=2)
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.sanitizer.clean, result.sanitizer.render()


class TestAsyncFaultInjection:
    """Negative control: a wrong-parity unpack must trip both detectors."""

    def test_wrong_parity_unpack_fires_both_rules(self, pin_lattice):
        engine = SanitizedAsyncMpEngine(
            workers=2, fault=FaultSpec(worker=0, iteration=1)
        )
        _, result = solve_2d(pin_lattice, engine, workers=2)
        report = result.sanitizer
        assert not report.clean
        rules = {f.rule for f in report.findings}
        assert "same-epoch-overlap" in rules
        assert "unpublished-read" in rules
        assert report.fault == FaultSpec(worker=0, iteration=1)

    def test_seeded_fault_lands_on_halo_iteration(self, pin_lattice):
        """A seed always maps to iteration 1 — iteration 0 reads no halo,
        so a seeded fault there would be a vacuous negative control."""
        engine = SanitizedAsyncMpEngine(workers=2, fault_seed=1234)
        _, result = solve_2d(pin_lattice, engine, workers=2)
        report = result.sanitizer
        assert not report.clean
        assert report.fault.iteration == 1
        assert report.fault.worker == FaultSpec.from_seed(1234, 2).worker

    def test_iteration_zero_fault_rejected(self, pin_lattice):
        engine = SanitizedAsyncMpEngine(
            workers=2, fault=FaultSpec(worker=0, iteration=0)
        )
        with pytest.raises(SanitizerError, match="iteration 0 consumes no halo"):
            solve_2d(pin_lattice, engine, workers=2)

    def test_fault_worker_out_of_range_rejected(self, pin_lattice):
        engine = SanitizedAsyncMpEngine(workers=2, fault=FaultSpec(worker=7, iteration=1))
        with pytest.raises(SanitizerError, match="worker 7"):
            solve_2d(pin_lattice, engine, workers=2)

    def test_fault_and_seed_are_mutually_exclusive(self):
        with pytest.raises(SanitizerError, match="not both"):
            SanitizedAsyncMpEngine(
                workers=2, fault_seed=1, fault=FaultSpec(worker=0, iteration=1)
            )


@pytest.mark.slow
class TestC5G7Audit:
    @pytest.mark.parametrize("engine", ["mp-async-sanitize"])
    def test_c5g7_coarse_clean_and_bitwise(self, engine):
        """The paper's benchmark, coarse: the sanitizer must stay silent
        and bitwise on full C5G7 3D heterogeneity over a z decomposition."""
        from repro.geometry.c5g7 import C5G7Spec, build_c5g7_3d
        from repro.materials.c5g7 import c5g7_library

        def build():
            return build_c5g7_3d(
                c5g7_library(),
                C5G7Spec(
                    pins_per_assembly=3, reflector_refinement=2,
                    fuel_layers=2, reflector_layers=2,
                ),
            )

        _, oracle = solve_3d(build(), "inproc", max_iterations=6)
        _, result = solve_3d(build(), engine, max_iterations=6)
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.sanitizer.clean, result.sanitizer.render()

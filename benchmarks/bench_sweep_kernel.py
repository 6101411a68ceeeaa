"""Sweep-kernel throughput per backend (the BENCH_sweep record).

Measures segments-per-second of each registered sweep backend on two real
tracking workloads — a coarse C5G7 3D core and a 2D pin cell — against the
``reference`` backend (the seed lockstep loop, kept verbatim for exactly
this comparison). Only kernel time counts: plan construction and the
exponential-table build are excluded via the sweeps' own timing hooks.

Each run also re-solves a fixed-iteration eigenvalue problem per backend
and asserts k-eff agreement to 1e-10, so the throughput numbers can never
come from a kernel that drifted numerically.

Results land in ``benchmarks/results/BENCH_sweep.json`` (merged across the
two cases) alongside the human-readable reporter table.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.observability.exporters import dump_record, merge_benchmark_record

from repro.geometry import Geometry, Lattice
from repro.geometry.c5g7 import C5G7Spec, build_c5g7_3d
from repro.geometry.universe import make_pin_cell_universe
from repro.materials import c5g7_library
from repro.solver import KeffSolver, SourceTerms, TransportSweep2D, TransportSweep3D
from repro.tracks import TrackGenerator, TrackGenerator3D

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_sweep.json"

#: Power iterations per timing/keff run (fixed, below convergence, so every
#: backend executes the identical iteration count).
ITERATIONS = 6

#: Acceptance floor: the rewritten numpy kernel vs the seed loop on the
#: coarse C5G7 3D case.
MIN_NUMPY_SPEEDUP_3D = 2.0


#: Every registered kernel; ``reference`` is the speedup denominator.
BACKENDS = ("numpy", "reference")


def _report(reporter, record: dict) -> None:
    reporter.line(f"case: {record['case']}  ({record['num_segments']} segments)")
    reporter.table(
        ["backend", "sweep s", "Mseg/s", "speedup", "keff"],
        [
            [
                b["backend"],
                f"{b['sweep_seconds']:.3f}",
                f"{b['segments_per_second'] / 1e6:.2f}",
                f"{b['speedup_vs_reference']:.2f}x",
                f"{b['keff']:.10f}",
            ]
            for b in record["backends"]
        ],
        widths=[12, 10, 10, 10, 16],
    )


def _finish_record(case: str, num_segments: int, rows: list[dict]) -> dict:
    ref = next(r for r in rows if r["backend"] == "reference")
    for r in rows:
        r["speedup_vs_reference"] = ref["sweep_seconds"] / max(r["sweep_seconds"], 1e-12)
    record = {
        "case": case,
        "num_segments": num_segments,
        "iterations": ITERATIONS,
        "backends": rows,
    }
    merge_benchmark_record(BENCH_JSON, record, benchmark="sweep_kernel")
    keffs = [r["keff"] for r in rows]
    assert max(keffs) - min(keffs) < 1e-10, f"backends disagree on keff: {keffs}"
    return record


@pytest.mark.slow
def test_sweep_kernel_3d_c5g7_coarse(reporter):
    """Coarse C5G7 3D: the acceptance case for the numpy-kernel rewrite."""
    geometry3d = build_c5g7_3d(
        c5g7_library(),
        C5G7Spec(
            pins_per_assembly=3, reflector_refinement=2,
            fuel_layers=2, reflector_layers=2,
        ),
    )
    trackgen = TrackGenerator3D(
        geometry3d, num_azim=4, azim_spacing=0.4, polar_spacing=0.4, num_polar=2
    ).generate()
    segments = trackgen.trace_all_3d()
    terms = SourceTerms(list(geometry3d.fsr_materials))
    volumes = trackgen.fsr_volumes_3d(segments)

    rows = []
    for name in BACKENDS:
        sweeper = TransportSweep3D(trackgen, terms, backend=name)
        solver = KeffSolver(
            terms, volumes,
            sweep=lambda reduced, s=sweeper: s.sweep(segments, reduced),
            finalize=sweeper.finalize_scalar_flux,
            keff_tolerance=1e-14, source_tolerance=1e-14,
            max_iterations=ITERATIONS,
        )
        # Warm-up sweep: plan bind + exponential table, outside the timing.
        sweeper.sweep(segments, np.full((terms.num_regions, terms.num_groups), 0.1))
        sweeper.reset_fluxes()
        before = sweeper.timings.sweep_seconds
        result = solver.solve()
        sweep_seconds = sweeper.timings.sweep_seconds - before
        rows.append(
            {
                "backend": name,
                "keff": result.keff,
                "sweep_seconds": sweep_seconds,
                "segments_per_second": 2 * segments.num_segments * ITERATIONS / sweep_seconds,
                "setup_seconds": sweeper.timings.setup_seconds,
            }
        )
    record = _finish_record("c5g7-3d-coarse", segments.num_segments, rows)
    _report(reporter, record)
    numpy_row = next(r for r in record["backends"] if r["backend"] == "numpy")
    assert numpy_row["speedup_vs_reference"] >= MIN_NUMPY_SPEEDUP_3D, (
        f"numpy backend only {numpy_row['speedup_vs_reference']:.2f}x over the seed loop"
    )


def run_quick_case() -> dict:
    """Reduced pin-cell case for the perf-smoke lane (``bench_perf_smoke``).

    In-process numpy-vs-reference ratio on a coarse laydown: both backends
    time inside the same interpreter, so the ratio is far more stable than
    either absolute number on a noisy host.
    """
    library = c5g7_library()
    pin = make_pin_cell_universe(
        0.54, library["UO2"], library["Moderator"], num_rings=2, num_sectors=4
    )
    geometry = Geometry(Lattice([[pin]], 1.26, 1.26), name="pin-cell-quick")
    trackgen = TrackGenerator(
        geometry, num_azim=8, azim_spacing=0.05, num_polar=4
    ).generate()
    terms = SourceTerms(list(geometry.fsr_materials))
    volumes = trackgen.fsr_volumes

    rows = []
    for name in ("numpy", "reference"):
        sweeper = TransportSweep2D(trackgen, terms, backend=name)
        solver = KeffSolver(
            terms, volumes,
            sweep=sweeper.sweep,
            finalize=sweeper.finalize_scalar_flux,
            keff_tolerance=1e-14, source_tolerance=1e-14,
            max_iterations=ITERATIONS,
        )
        sweeper.sweep(np.full((terms.num_regions, terms.num_groups), 0.1))
        sweeper.reset_fluxes()
        before = sweeper.timings.sweep_seconds
        result = solver.solve()
        sweep_seconds = sweeper.timings.sweep_seconds - before
        rows.append(
            {
                "backend": name,
                "keff": result.keff,
                "sweep_seconds": sweep_seconds,
                "segments_per_second": 2 * trackgen.num_segments * ITERATIONS / sweep_seconds,
                "setup_seconds": sweeper.timings.setup_seconds,
            }
        )
    return _finish_record("pin-cell-2d-quick", trackgen.num_segments, rows)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Sweep-kernel benchmark")
    parser.add_argument("--quick", action="store_true", help="reduced pin-cell case")
    parser.add_argument("--json", action="store_true", help="print the case record as JSON")
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("direct invocation supports --quick only; use pytest for the full cases")
    record = run_quick_case()
    if args.json:
        print(dump_record(record, indent=2))
    else:
        numpy_row = next(r for r in record["backends"] if r["backend"] == "numpy")
        print(f"pin-cell-2d-quick: numpy {numpy_row['speedup_vs_reference']:.2f}x vs reference")
    return 0


@pytest.mark.slow
def test_sweep_kernel_2d_pin_cell(reporter):
    """2D pin cell: per-polar kernel shape, finer angular resolution."""
    library = c5g7_library()
    pin = make_pin_cell_universe(
        0.54, library["UO2"], library["Moderator"], num_rings=3, num_sectors=8
    )
    geometry = Geometry(Lattice([[pin]], 1.26, 1.26), name="pin-cell-bench")
    trackgen = TrackGenerator(
        geometry, num_azim=16, azim_spacing=0.03, num_polar=4
    ).generate()
    terms = SourceTerms(list(geometry.fsr_materials))
    volumes = trackgen.fsr_volumes

    rows = []
    for name in BACKENDS:
        sweeper = TransportSweep2D(trackgen, terms, backend=name)
        solver = KeffSolver(
            terms, volumes,
            sweep=sweeper.sweep,
            finalize=sweeper.finalize_scalar_flux,
            keff_tolerance=1e-14, source_tolerance=1e-14,
            max_iterations=ITERATIONS,
        )
        sweeper.sweep(np.full((terms.num_regions, terms.num_groups), 0.1))
        sweeper.reset_fluxes()
        before = sweeper.timings.sweep_seconds
        result = solver.solve()
        sweep_seconds = sweeper.timings.sweep_seconds - before
        rows.append(
            {
                "backend": name,
                "keff": result.keff,
                "sweep_seconds": sweep_seconds,
                "segments_per_second": 2 * trackgen.num_segments * ITERATIONS / sweep_seconds,
                "setup_seconds": sweeper.timings.setup_seconds,
            }
        )
    record = _finish_record("pin-cell-2d", trackgen.num_segments, rows)
    _report(reporter, record)


if __name__ == "__main__":
    raise SystemExit(main())

"""3D segment regeneration — batched kernel vs the per-track oracle.

OTF storage re-segments every 3D track on every sweep (Sec. 4.1), so the
cost of one full 3D trace sets OTF's per-sweep overhead. This times one
full trace of the c5g7-3d-mini core at two track densities, both through
the per-track ``trace_track_3d`` loop (the oracle) and through the batched
``trace_all_3d`` kernel, checks the two are byte-identical, and records
the medians in ``benchmarks/results/test_regen3d_kernel.txt``.

    PYTHONPATH=src python -m pytest -q benchmarks/bench_regen3d.py
"""

import time

import numpy as np

from repro.runtime.antmoc import GEOMETRY_BUILDERS
from repro.tracks import SegmentData, TrackGenerator3D

#: (label, azimuthal spacing, polar spacing): the trackings of the
#: time-to-solution benchmark's core3d-otf and core3d-z2 workloads, both on
#: the whole core here (core3d-z2 itself splits it into two axial slabs).
TRACKINGS = [("0.5/0.8 cm", 0.5, 0.8), ("0.25/0.4 cm", 0.25, 0.4)]
ORACLE_REPEATS = 3
KERNEL_REPEATS = 15
#: The kernel must beat the per-track loop by at least this factor.
MIN_SPEEDUP = 5.0


def median_seconds(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)), result


def oracle_trace(tg):
    per_track = [tg.trace_track_3d(t) for t in tg.tracks3d]
    offsets = np.zeros(len(per_track) + 1, dtype=np.int64)
    np.cumsum([f.size for f, _ in per_track], out=offsets[1:])
    return SegmentData(
        np.concatenate([ln for _, ln in per_track]),
        np.concatenate([f for f, _ in per_track]),
        offsets,
    )


def test_regen3d_kernel(reporter):
    geometry = GEOMETRY_BUILDERS["c5g7-3d-mini"]()
    rows = []
    speedups = []
    for label, azim_spacing, polar_spacing in TRACKINGS:
        tg = TrackGenerator3D(
            geometry, num_azim=4, azim_spacing=azim_spacing,
            polar_spacing=polar_spacing, num_polar=2,
        ).generate()
        t_oracle, want = median_seconds(lambda: oracle_trace(tg), ORACLE_REPEATS)
        t_kernel, got = median_seconds(tg.trace_all_3d, KERNEL_REPEATS)
        for name in ("offsets", "fsr_ids", "lengths"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        speedups.append(t_oracle / t_kernel)
        rows.append([
            label, tg.num_tracks_3d, got.num_segments,
            f"{1e3 * t_oracle:.1f}", f"{1e3 * t_kernel:.1f}", f"{t_oracle / t_kernel:.1f}x",
        ])

    reporter.line("3D regeneration: one full trace, per-track oracle vs batched kernel")
    reporter.line(
        f"(c5g7-3d-mini; median of {ORACLE_REPEATS} oracle / {KERNEL_REPEATS} kernel "
        "traces; outputs byte-identical)"
    )
    reporter.line()
    reporter.table(
        ["spacings", "3D tracks", "segments", "oracle ms", "kernel ms", "speedup"],
        rows, widths=[12, 11, 10, 11, 11, 9],
    )
    assert min(speedups) >= MIN_SPEEDUP

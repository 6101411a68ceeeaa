"""Which calls the traced run times, and the per-layer metrics built from them.

Each layer of the solve pipeline is timed at the public calls into it.
Self times keep the layers disjoint: a storage strategy's sweep contains
the 3D regeneration and the transport sweep, and each is charged to its
own layer. Counts come from the run report's counters where the program
already keeps them, so they are exact.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Mapping

from tracing import Tracer

#: Span name of the power iteration proper (one per solve).
SOLVE = "solve"

#: Per-layer metrics: name, unit, which direction is better. A layer that
#: a workload does not exercise reads zero on it.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("geometry.build_s", "s", "lower"),
    ("tracks.generate_s", "s", "lower"),
    ("tracks.trace3d_setup_s", "s", "lower"),
    ("tracks.segments_3d", "count", "lower"),
    ("trackmgmt.regen_s", "s", "lower"),
    ("trackmgmt.regen_calls", "count", "lower"),
    ("trackmgmt.regen_tracks", "count", "lower"),
    ("solver.plan_s", "s", "lower"),
    ("solver.sweep_s", "s", "lower"),
    ("solver.sweep_calls", "count", "lower"),
    ("solver.segments_per_s", "1/s", "higher"),
    ("solver.source_s", "s", "lower"),
    ("solver.finalize_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("cmfd.solve_s", "s", "lower"),
    ("cmfd.reduce_s", "s", "lower"),
    ("cmfd.solves", "count", "lower"),
    ("cmfd.inner_iterations", "count", "lower"),
    ("cmfd.share", "ratio", "lower"),
    ("engine.exchange_s", "s", "lower"),
    ("parallel.halo_messages", "count", "lower"),
    ("parallel.halo_bytes", "B", "lower"),
    ("parallel.allreduce_calls", "count", "lower"),
    ("scenario.sweep_s", "s", "lower"),
    ("scenario.sweeps", "count", "lower"),
    ("scenario.useful_state_sweep_ratio", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)


def _trace3d_layer(tracer: Tracer) -> str:
    """3D segmentation inside a storage strategy's sweep is regeneration;
    before the solve it is setup; after it, the run report re-counting
    segments."""
    if "trackmgmt.sweep" in tracer.open_names():
        return "trackmgmt.regen"
    if tracer.has_closed(SOLVE):
        return "tracks.trace3d_report"
    return "tracks.trace3d_setup"


def _segment_counts(segments: Any) -> dict[str, int]:
    return {"segments": int(segments.num_segments), "tracks": int(segments.num_tracks)}


def install(tracer: Tracer) -> None:
    """Wrap every timed call. Call before the solver is built: solvers keep
    bound methods (e.g. the sweep callback), which must be the wrappers."""
    import repro.engine.inproc as inproc
    from repro.engine.problem import Problem3D
    from repro.parallel.driver3d import ZDecomposedSolver
    from repro.runtime.antmoc import GEOMETRY_BUILDERS
    from repro.scenario.batched import BatchedKeffSolver, BatchedSweep2D
    from repro.solver.cmfd import CmfdAccelerator, CmfdProblem, CurrentTally
    from repro.solver.keff import KeffSolver
    from repro.solver.source import SourceTerms
    from repro.solver.sweep2d import TransportSweep2D
    from repro.solver.sweep3d import TransportSweep3D
    from repro.trackmgmt import ExplicitStorage, OnTheFlyStorage
    from repro.tracks.generator import TrackGenerator, TrackGenerator3D

    for key in list(GEOMETRY_BUILDERS):
        tracer.wrap(GEOMETRY_BUILDERS, key, "geometry.build")
    for cls in (TrackGenerator, TrackGenerator3D):
        tracer.wrap(cls, "generate", "tracks.generate")
    tracer.wrap(TrackGenerator3D, "trace_all_3d", _trace3d_layer, counts=_segment_counts)
    for cls in (ExplicitStorage, OnTheFlyStorage):
        tracer.wrap(cls, "sweep", "trackmgmt.sweep")
    tracer.wrap(TransportSweep3D, "plan_for", "solver.plan")
    for cls in (TransportSweep2D, TransportSweep3D):
        tracer.wrap(cls, "sweep", "solver.sweep")
        tracer.wrap(cls, "finalize_scalar_flux", "solver.finalize")
    tracer.wrap(BatchedSweep2D, "finalize_state", "solver.finalize")
    tracer.wrap(SourceTerms, "reduced_source", "solver.source")
    tracer.wrap(Problem3D, "sweep_domain", "solver.sweep_domain")
    tracer.wrap(Problem3D, "production", "engine.production")
    tracer.wrap(Problem3D, "fission_source", "engine.fission_source")
    tracer.wrap(CmfdAccelerator, "apply", "cmfd.apply")
    tracer.wrap(inproc, "apply_engine_cmfd", "cmfd.apply")
    tracer.wrap(CmfdProblem, "solve", "cmfd.solve")
    tracer.wrap(CmfdProblem, "reduce", "cmfd.reduce")
    for key in ("take", "scale_boundary_flux", "accumulate"):
        tracer.wrap(CurrentTally, key, "cmfd.tally")
    tracer.wrap(inproc.InprocEngine, "solve", "engine.solve")
    tracer.wrap(BatchedSweep2D, "sweep", "scenario.sweep")
    for cls in (KeffSolver, BatchedKeffSolver, ZDecomposedSolver):
        tracer.wrap(cls, "solve", SOLVE)


def layer_metrics(
    tracer: Tracer, counters: Iterable[Mapping[str, int]], solve_s: float
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead``, which compares a
    traced run with an untraced one and is formed by the caller.

    ``counters`` holds one run-report counter set per solved state;
    ``solve_s`` is the traced run's transport-solving stage time.
    """
    counters = list(counters)
    own = tracer.self_times()
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counted: dict[tuple[str, str], int] = defaultdict(int)
    covered = 0.0
    cmfd_s = 0.0
    for span, self_s in zip(tracer.spans, own):
        seconds[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.counts.items():
            counted[span.name, key] += value
        parent = None if span.parent is None else tracer.spans[span.parent].name
        if parent == SOLVE:
            covered += span.duration
        if span.name.startswith("cmfd.") and not (parent or "").startswith("cmfd."):
            cmfd_s += span.duration

    def total(name: str) -> int:
        return sum(c.get(name, 0) for c in counters)

    sweep_s = seconds["solver.sweep"] + seconds["solver.sweep_domain"]
    kernel_s = sweep_s + seconds["scenario.sweep"]
    batched = counters[0].get("sweeps_batched", 0)
    states = max(1, counters[0].get("scenarios_total", 0))
    return {
        "geometry.build_s": seconds["geometry.build"],
        "tracks.generate_s": seconds["tracks.generate"],
        "tracks.trace3d_setup_s": seconds["tracks.trace3d_setup"],
        "tracks.segments_3d": counted["tracks.trace3d_setup", "segments"],
        "trackmgmt.regen_s": seconds["trackmgmt.regen"],
        "trackmgmt.regen_calls": calls["trackmgmt.regen"],
        "trackmgmt.regen_tracks": counted["trackmgmt.regen", "tracks"],
        "solver.plan_s": seconds["solver.plan"],
        "solver.sweep_s": sweep_s,
        "solver.sweep_calls": calls["solver.sweep"],
        "solver.segments_per_s": total("segments_swept") / kernel_s if kernel_s > 0 else 0.0,
        "solver.source_s": seconds["solver.source"],
        "solver.finalize_s": seconds["solver.finalize"],
        "solver.iterations": total("moc_iterations"),
        "cmfd.solve_s": seconds["cmfd.solve"],
        "cmfd.reduce_s": seconds["cmfd.reduce"],
        "cmfd.solves": total("cmfd_solves"),
        "cmfd.inner_iterations": total("cmfd_iterations"),
        "cmfd.share": cmfd_s / solve_s,
        "engine.exchange_s": seconds["engine.solve"],
        "parallel.halo_messages": total("halo_messages"),
        "parallel.halo_bytes": total("halo_bytes"),
        "parallel.allreduce_calls": total("allreduce_calls"),
        "scenario.sweep_s": seconds["scenario.sweep"],
        "scenario.sweeps": batched,
        "scenario.useful_state_sweep_ratio": (
            total("moc_iterations") / (batched * states) if batched else 0.0
        ),
        "trace.unattributed_share": max(0.0, solve_s - covered) / solve_s,
    }

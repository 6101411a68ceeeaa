"""The benchmark's own checks: tracing is passive and leaves nothing behind,
spans nest, per-layer counts agree with the run report, and the driver
refuses to run without the program's sources.

    PYTHONPATH=src python -m pytest -q benchmarks/time_to_solution

Solves are cut to three iterations: the checks concern the tracer and the
layer bookkeeping, not convergence.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import sample
from tracing import Tracer
from workloads import WORKLOADS, config_dict

HERE = Path(__file__).resolve().parent

#: Layers each workload bypasses: their metrics must read zero there.
ZERO_ON = {
    "pin2d-plain": ("tracks.trace3d_setup_s", "tracks.segments_3d", "trackmgmt.", "cmfd.",
                    "engine.", "parallel.", "scenario.", "solver.plan_s"),
    "core3d-otf": ("engine.", "parallel.", "scenario."),
    "core3d-z2": ("trackmgmt.", "scenario."),
    "batch2d-s4": ("tracks.trace3d_setup_s", "tracks.segments_3d", "trackmgmt.", "engine.",
                   "parallel.", "solver.plan_s", "solver.sweep_s", "solver.sweep_calls"),
}

#: Layers each workload must exercise.
NONZERO_ON = {
    "pin2d-plain": ("solver.sweep_s", "tracks.generate_s"),
    "core3d-otf": ("trackmgmt.regen_s", "tracks.trace3d_setup_s", "solver.plan_s",
                   "cmfd.solve_s"),
    "core3d-z2": ("engine.exchange_s", "parallel.halo_messages", "tracks.trace3d_setup_s",
                  "cmfd.solve_s"),
    "batch2d-s4": ("scenario.sweep_s", "scenario.useful_state_sweep_ratio", "cmfd.solve_s"),
}


def short_config(name: str) -> dict:
    data = config_dict(name, seed=7)
    data["solver"]["max_iterations"] = 3
    return data


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request):
    """An untraced and a traced solve of one workload, plus the wrappers
    the traced run installed."""
    name = request.param
    plain_reports, plain_keffs, _ = sample.solve(short_config(name))
    tracer = Tracer(f"test/{name}")
    layers.install(tracer)
    installed = list(tracer.installed)
    try:
        reports, keffs, _ = sample.solve(short_config(name))
    finally:
        tracer.remove()
    return name, (plain_reports, plain_keffs), (reports, keffs), tracer, installed


def test_traced_run_matches_untraced(traced_pair):
    _, (plain_reports, plain_keffs), (reports, keffs), _, _ = traced_pair
    assert [k.hex() for k in keffs] == [k.hex() for k in plain_keffs]
    assert [r.counters.to_dict() for r in reports] == [
        r.counters.to_dict() for r in plain_reports
    ]


def test_spans_nest_inside_their_parents(traced_pair):
    name, _, _, tracer, _ = traced_pair
    assert tracer.spans
    assert tracer.misfits() == []
    assert {span.run_id for span in tracer.spans} == {f"test/{name}"}
    assert min(tracer.self_times()) > -1e-9


def test_no_wrapper_left_installed(traced_pair):
    *_, tracer, installed = traced_pair
    assert installed and not tracer.installed
    for owner, key, original in installed:
        current = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        assert current is original, f"{owner!r}.{key} is still wrapped"


def test_layer_metrics_agree_with_run_report(traced_pair):
    name, _, (reports, _), tracer, _ = traced_pair
    counters = [r.counters.to_dict() for r in reports]
    solve_s = reports[0].stages[sample.SOLVE_STAGE]
    metrics = layers.layer_metrics(tracer, counters, solve_s)
    assert set(metrics) | {"trace.overhead"} == {n for n, _, _ in layers.PER_LAYER}

    first = counters[0]
    assert metrics["solver.iterations"] == sum(c["moc_iterations"] for c in counters)
    assert metrics["parallel.halo_messages"] == first.get("halo_messages", 0)
    assert metrics["scenario.sweeps"] == first.get("sweeps_batched", 0)
    if name != "batch2d-s4":
        domains = first["num_domains"]
        assert metrics["solver.sweep_calls"] == first["moc_iterations"] * domains
        assert metrics["tracks.segments_3d"] == first["segments_3d"]
    if name == "core3d-otf":
        assert metrics["trackmgmt.regen_calls"] == first["moc_iterations"]
        assert metrics["trackmgmt.regen_tracks"] == first["moc_iterations"] * first["tracks_3d"]

    for metric, value in metrics.items():
        if metric.startswith(ZERO_ON[name]):
            assert value == 0, f"{metric} should read zero on {name}, got {value}"
    for metric in NONZERO_ON[name]:
        assert metrics[metric] > 0, f"{metric} should be measured on {name}"


def fake_sample(keff_error_pcm: float, iterations: int) -> dict:
    return {"keff_hex": "0x1.6p-1", "keff_error_pcm": keff_error_pcm,
            "exact": {"moc_iterations": [iterations]}}


def test_check_fails_wrong_eigenvalue_and_drifting_counters():
    failures = ["sample 4: exit 1: boom"]
    samples = [fake_sample(1.0, 10), fake_sample(1.0, 10), fake_sample(250.0, 10),
               fake_sample(1.0, 11), None]
    good = run.check("pin2d-plain", samples, failures)
    assert good == samples[:2]
    assert len(failures) == 3
    assert "misses k_ref" in failures[1] and "exact counters differ" in failures[2]


def test_benchmark_json_matches_the_driver():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, f"{w.why} {w.bypasses}") for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_driver_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "benchmarks" / "time_to_solution"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "pin2d-plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Time-to-solution benchmark: end-to-end metrics per workload, per-layer
metrics from a separate traced run.

    python3 benchmarks/time_to_solution/run.py --workload pin2d-plain --seed 1 \\
        --seconds 24 --trace 0
    python3 benchmarks/time_to_solution/run.py --workload all   # every workload

Each sample solves the workload once in a fresh child process (so
``peak_rss_mb`` is per sample) with BLAS capped at one thread and any
``REPRO_*`` switches removed from its environment. Samples repeat until
``--seconds`` have passed (at least ``MIN_SAMPLES``); metrics are medians
over samples. A sample fails when it raises, when its eigenvalue misses the
workload's reference by more than the workload's bound, or when its exact
counters differ from the other samples of the run.

With ``--trace 0`` every sample is untraced and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced samples alternate; the
per-layer metrics are medians over traced samples, and ``trace.overhead``
is the traced over the untraced median time to solution.

Records go to ``benchmarks/time_to_solution/out/`` through
``repro.observability.exporters``: ``<workload>-seed<n>-trace<t>.json``
(host fingerprint, per-sample values, medians and quartiles, layers),
``<workload>-seed<n>.report.json`` (the run report of one sample) and, for
traced runs, ``<workload>-seed<n>.spans.json``. Two records diff with
``python -m repro.report diff --rtol 0.1 A B``. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Name, unit; lower is better for all of them.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("time_to_solution_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("keff_error_pcm", "pcm"),
    ("peak_rss_mb", "MB"),
)

MIN_SAMPLES = 3
#: The whole run, builds included, ends well inside three minutes.
HARD_LIMIT_S = 170.0
BLAS_THREADS = "1"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") or k == "REPRO_GIT_REV"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_sample(workload: str, seed: int, traced: bool, index: int,
               timeout: float) -> tuple[dict[str, Any] | None, str]:
    """One child solve; returns ``(record, "")`` or ``(None, reason)``."""
    from repro.observability.exporters import parse_record

    command = [
        sys.executable, str(HERE / "sample.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)),
        "--run-id", f"{workload}/seed{seed}/sample{index}",
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        return None, f"sample {index}: timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return None, f"sample {index}: exit {proc.returncode}: {tail}"
    return parse_record(lines[-1]), ""


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Run samples until ``seconds`` have passed; alternate untraced and
    traced samples when ``trace`` is set. No sample starts after half the
    hard limit, so a slow program still ends the run in time."""
    start = time.perf_counter()
    samples: list[dict[str, Any] | None] = []
    failures: list[str] = []
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and len(samples) >= MIN_SAMPLES
        if samples and (enough or elapsed >= HARD_LIMIT_S / 2):
            break
        index = len(samples)
        record, reason = run_sample(
            workload, seed, trace and index % 2 == 1, index,
            HARD_LIMIT_S - elapsed,
        )
        samples.append(record)
        if reason:
            failures.append(reason)
    return samples, failures


def check(workload: str, samples: list[dict[str, Any] | None], failures: list[str]) -> list[dict]:
    """Mark failing samples; returns the good ones."""
    spec = WORKLOADS[workload]
    signatures = [repr(s["exact"]) for s in samples if s is not None]
    usual = Counter(signatures).most_common(1)[0][0] if signatures else None
    good = []
    for index, sample in enumerate(samples):
        if sample is None:
            continue
        if sample["keff_error_pcm"] > spec.bound_pcm:
            failures.append(
                f"sample {index}: k {float.fromhex(sample['keff_hex']):.6f} misses k_ref "
                f"{spec.k_ref:.6f} by {sample['keff_error_pcm']:.1f} pcm "
                f"(bound {spec.bound_pcm:g})"
            )
        elif repr(sample["exact"]) != usual:
            failures.append(f"sample {index}: exact counters differ: {sample['exact']}")
        elif sample.get("misfit_spans"):
            failures.append(f"sample {index}: {sample['misfit_spans']} spans outside parents")
        else:
            good.append(sample)
    return good


def spread(values: list[float]) -> dict[str, Any]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": values}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from repro.observability.exporters import write_record

    samples, failures = collect(workload, seed, seconds, trace)
    good = check(workload, samples, failures)
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    metrics: dict[str, dict[str, Any]] = {}
    record: dict[str, Any] = {
        "benchmark": "time-to-solution",
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "host": good[0]["host"] if good else {},
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "failures": failures,
        "exact": good[0]["exact"] if good else {},
    }
    if plain:
        ends = {name: spread([s[name] for s in plain]) for name, _ in END_TO_END}
        record["end_to_end"] = {name: {"unit": unit, **ends[name]} for name, unit in END_TO_END}
        write_record(OUT / f"{workload}-seed{seed}.report.json", plain[-1]["report"])
    if trace and plain and traced:
        from layers import PER_LAYER

        tts = statistics.median(s["time_to_solution_s"] for s in traced)
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name, _, _ in PER_LAYER if name != "trace.overhead"}
        values["trace.overhead"] = tts / record["end_to_end"]["time_to_solution_s"]["median"]
        record["layers"] = {name: {"value": values[name], "unit": unit}
                            for name, unit, _ in PER_LAYER}
        metrics = record["layers"]
        write_record(OUT / f"{workload}-seed{seed}.spans.json", traced[0]["spans"])
    elif not trace and plain:
        metrics = {name: {"value": record["end_to_end"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    write_record(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", record)
    return {
        "correct": bool(good) and not failures and bool(metrics),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.observability.exporters import dump_record

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"{name}: {result['failed']} of {result['attempted']} samples failed")
        for reason in result["failures"]:
            print(f"  FAILED {reason}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<36s} {entry['value']:>14.6g} {entry['unit']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (results[names[0]]["metrics"] if len(names) == 1
                    else {name: r["metrics"] for name, r in results.items()}),
    }
    print(dump_record(summary))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

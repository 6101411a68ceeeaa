"""One sample of one workload, in a fresh process.

Run by ``run.py`` once per sample, with the program's ``src`` on
``PYTHONPATH`` and BLAS threads capped. Prints one record (via
``repro.observability.exporters.dump_record``) as its last stdout line.

    python3 sample.py --workload pin2d-plain --seed 0 --trace 0
    python3 sample.py --reference core3d-z2     # recompute one k_ref
"""

from __future__ import annotations

import argparse
import ctypes
import os
import platform
import resource
import sys
import time
from typing import Any

import layers
from tracing import Tracer
from workloads import WORKLOADS, config_dict, reference_config_dict

#: Run-report stages that make up set-up: config validation, geometry,
#: track generation and solver construction, up to the first sweep.
SETUP_STAGES = ("read_configuration", "geometry_construction", "track_generation")
SOLVE_STAGE = "transport_solving"

#: Run-report counters that must repeat exactly between samples of one code.
EXACT_COUNTERS = ("moc_iterations", "segments_swept", "halo_messages", "cmfd_solves",
                  "sweeps_batched")


def solve(config_data: dict[str, Any]) -> tuple[list[Any], list[float], float]:
    """Solve one config through the public API.

    Returns the run report and eigenvalue of every solved state (nominal
    first) and the wall time from the loaded config to the returned result.
    """
    # The program imports these on first use; importing them here keeps
    # import time out of the timed region, like every other import.
    import json  # noqa: F401
    import numpy.ma  # noqa: F401
    import repro.engine  # noqa: F401
    from repro.io.config import config_from_dict
    from repro.runtime.antmoc import AntMocApplication
    from repro.scenario import run_scenario_batch

    config = config_from_dict(config_data)
    start = time.perf_counter()
    if config.scenarios:
        batch = run_scenario_batch(config)
        seconds = time.perf_counter() - start
        return [s.run_report for s in batch.states], [s.keff for s in batch.states], seconds
    result = AntMocApplication(config).run()
    seconds = time.perf_counter() - start
    return [result.run_report], [result.keff], seconds


def run_once(name: str, seed: int, traced: bool, run_id: str = "") -> dict[str, Any]:
    """One solve of a workload, optionally traced; returns its record."""
    workload = WORKLOADS[name]
    tracer = Tracer(run_id or f"{name}/seed{seed}") if traced else None
    if tracer is not None:
        layers.install(tracer)
    try:
        reports, keffs, seconds = solve(config_dict(name, seed))
    finally:
        if tracer is not None:
            tracer.remove()
    stages = reports[0].stages
    counters = [r.counters.to_dict() for r in reports]
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "keff_hex": keffs[0].hex(),
        "keff_error_pcm": abs(keffs[0] - workload.k_ref) * 1.0e5,
        "time_to_solution_s": seconds,
        "setup_s": sum(stages.get(stage, 0.0) for stage in SETUP_STAGES),
        "solve_s": stages[SOLVE_STAGE],
        "exact": {
            "keff_hex": [k.hex() for k in keffs],
            **{key: [c.get(key, 0) for c in counters] for key in EXACT_COUNTERS},
        },
        "report": reports[0].to_dict(),
    }
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer, counters, record["solve_s"])
        record["misfit_spans"] = len(tracer.misfits())
        record["spans"] = tracer.to_dicts()
    return record


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    counts: dict[str, int] = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:  # no procfs: the count stays unknown
        return counts
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(getter())
                break
    return counts


def host_fingerprint() -> dict[str, Any]:
    import numpy
    import scipy

    from repro.observability.manifest import detect_git_rev

    def blas_version(config: dict) -> str:
        return str(config["Build Dependencies"]["blas"].get("version", "unknown"))

    return {
        "nproc": os.cpu_count() or 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy.__config__.CONFIG),
        "scipy_openblas": blas_version(scipy.__config__.CONFIG),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "git_rev": detect_git_rev(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--reference", choices=sorted(WORKLOADS),
                        help="print the tightly converged k_ref of a workload")
    args = parser.parse_args(argv)

    from repro.observability.exporters import dump_record

    if args.reference:
        _, keffs, seconds = solve(reference_config_dict(args.reference))
        print(dump_record({"workload": args.reference, "k_ref": keffs[0],
                           "k_ref_hex": keffs[0].hex(), "seconds": seconds}))
        return 0
    if not args.workload:
        parser.error("--workload or --reference is required")
    record = run_once(args.workload, args.seed, bool(args.trace), args.run_id)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["host"] = host_fingerprint()
    print(dump_record(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

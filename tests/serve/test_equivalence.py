"""Served solves are bitwise-identical to direct CLI-style runs.

The service promise: what comes back from the farm is the same record a
batch ``AntMocApplication`` run of the same config produces — same keff
bits, same flux bits, same workload counters — with the service's own
story confined to the ``SERVICE_ONLY_COUNTERS``, the ``serve/*`` stage
rows and the ``serve`` span root. These tests strip exactly that
annotation and require the rest to match key-for-key, over the inproc
oracle and the mp-async engine, for fresh solves and report-cache hits.
"""

from __future__ import annotations

import copy
import multiprocessing

import numpy as np
import pytest

from repro.io.config import config_from_dict
from repro.observability.counters import SERVICE_ONLY_COUNTERS
from repro.runtime.antmoc import AntMocApplication
from repro.serve import ServeOptions, SolveService

from .conftest import solve_payload

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="mp engines fork worker processes",
)


def strip_service_annotation(report_dict):
    """Everything the service may legitimately add, removed. Stage and
    span *durations* are wall-clock and excluded by construction: stages
    reduce to their key set, spans to their root names."""
    stripped = copy.deepcopy(report_dict)
    stripped["counters"] = {
        k: v
        for k, v in stripped["counters"].items()
        if k not in SERVICE_ONLY_COUNTERS
    }
    stripped["stages"] = sorted(
        k
        for k in stripped["stages"]
        if k != "serve" and not k.startswith("serve/")
    )
    stripped["spans"] = sorted(
        s["name"] for s in stripped["spans"] if s["name"] != "serve"
    )
    return stripped


def assert_served_equals_direct(payload):
    direct = AntMocApplication(config_from_dict(payload)).run()
    with SolveService(ServeOptions(solver_threads=1)) as service:
        fresh = service.solve(payload)
        hit = service.solve(payload)
    assert not fresh.cache_hit and hit.cache_hit

    reference = direct.run_report.to_dict()
    for served in (fresh, hit):
        assert np.array_equal(served.scalar_flux, direct.scalar_flux)
        served_dict = served.report.to_dict()
        # The bitwise core: identical eigenvalue bits, identical manifest,
        # identical workload counters.
        assert served_dict["results"] == reference["results"]
        assert served_dict["manifest"] == reference["manifest"]
        assert strip_service_annotation(served_dict) == strip_service_annotation(
            reference
        )


class TestBitwiseEquivalence:
    def test_inproc(self):
        assert_served_equals_direct(solve_payload())

    @needs_fork
    def test_mp_async_decomposed(self):
        assert_served_equals_direct(
            solve_payload(
                decomposition={"nx": 3, "ny": 3, "engine": "mp-async", "workers": 2}
            )
        )

    @needs_fork
    def test_mp_async_sanitize_decomposed(self):
        assert_served_equals_direct(
            solve_payload(
                decomposition={
                    "nx": 3, "ny": 3, "engine": "mp-async-sanitize", "workers": 2
                }
            )
        )

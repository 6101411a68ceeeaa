"""Cross-engine report equivalence: the counters describe the *workload*,
so every execution engine must report the same numbers for the same
decomposed solve — only the engine properties (``num_workers`` and the
mp-async mailbox counters ``halo_wait_ns``/``neighbor_stalls``/
``epochs_overlapped``) may differ.
"""

import pytest

from repro.runtime import AntMocApplication
from tests.observability.conftest import mini_2d_config

ENGINES = ("inproc", "mp-async", "mp-async-sanitize")

#: Engine properties: timing- and protocol-dependent, excluded from the
#: workload comparison.
ENGINE_COUNTERS = (
    "num_workers",
    "halo_wait_ns",
    "neighbor_stalls",
    "epochs_overlapped",
)


def run_with_engine(engine):
    config = mini_2d_config(
        decomposition={"nx": 3, "ny": 3, "engine": engine, "workers": 2},
    )
    return AntMocApplication(config).run()


@pytest.fixture(scope="module")
def engine_results():
    return {engine: run_with_engine(engine) for engine in ENGINES}


def workload_counters(result):
    counters = result.run_report.counters.to_dict()
    for name in ENGINE_COUNTERS:
        counters.pop(name, None)
    return counters


class TestCrossEngineEquivalence:
    def test_counters_identical_across_engines(self, engine_results):
        baseline = workload_counters(engine_results["inproc"])
        for engine in ENGINES[1:]:
            assert workload_counters(engine_results[engine]) == baseline, (
                f"{engine} reported a different workload than inproc"
            )

    def test_keff_bitwise_identical_across_engines(self, engine_results):
        hexes = {r.keff.hex() for r in engine_results.values()}
        assert len(hexes) == 1, f"engines disagreed on k-eff: {hexes}"

    def test_comm_counters_populated(self, engine_results):
        for engine, result in engine_results.items():
            counters = result.run_report.counters
            assert counters["halo_bytes"] > 0, engine
            assert counters["halo_messages"] > 0, engine
            assert counters["allreduce_calls"] > 0, engine
            assert counters["num_domains"] == 9, engine

    def test_async_engine_reports_mailbox_counters(self, engine_results):
        for engine in ("mp-async", "mp-async-sanitize"):
            counters = engine_results[engine].run_report.counters
            for name in ("halo_wait_ns", "neighbor_stalls", "epochs_overlapped"):
                assert name in counters, (engine, name)
        # The in-process simulator has no mailboxes to report on.
        others = engine_results["inproc"].run_report.counters
        assert "epochs_overlapped" not in others

    def test_mp_engines_report_worker_spans(self, engine_results):
        for engine in ("mp-async", "mp-async-sanitize"):
            report = engine_results[engine].run_report
            workers = next((s for s in report.spans if s.name == "workers"), None)
            assert workers is not None, f"{engine} run has no workers span group"
            assert workers.children, f"{engine} run recorded no per-worker spans"

"""Seeded-mutation corpus for the shm-protocol checker.

Each case takes the *real* engine source, applies one textual mutation
that reintroduces a protocol bug the engine is carefully written to
avoid, and asserts the checker flags it — plus the controls: the
unmutated sources are clean, so every finding on a mutant is signal.

The replacements assert the original snippet still exists before
rewriting, so if the engine code drifts these tests fail loudly at the
assert (corpus needs re-seeding) instead of silently testing nothing.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_source

REPO = Path(__file__).resolve().parents[2]

ASYNC_MP = "src/repro/engine/async_mp.py"
SANITIZE = "src/repro/engine/sanitize.py"

#: The worker body's halo pack and the edge publish that must follow it.
HALO_PACK = (
    "                        halo[t % 2, pack.edge_routes(e)] = sweeper.psi_out_last[\n"
    "                            tracks, dirs\n"
    "                        ]\n"
)
EDGE_PUBLISH = "                        edge_seq[e] = t + 1  # publish after the payload\n"


def _source(rel: str) -> str:
    return (REPO / rel).read_text(encoding="utf-8")


def _mutate(text: str, old: str, new: str) -> str:
    assert old in text, f"corpus drift: expected snippet not found:\n{old}"
    return text.replace(old, new, 1)


def _rules(text: str, path: str) -> list[str]:
    findings = analyze_source(text, path=path, select=["shm-protocol"])
    return sorted({f.rule for f in findings})


class TestControls:
    """The shipped engine passes its own protocol checker."""

    @pytest.mark.parametrize("rel", [ASYNC_MP, SANITIZE])
    def test_unmutated_source_is_clean(self, rel):
        findings = analyze_source(_source(rel), path=rel)
        assert findings == [], "\n".join(f.render() for f in findings)


class TestSeqlockMutations:
    def test_bump_before_payload_in_async_worker(self):
        # Swap the halo payload write and the edge_seq publish: readers
        # polling edge_seq would consume the previous epoch's buffer.
        old = HALO_PACK + EDGE_PUBLISH
        new = "                        edge_seq[e] = t + 1\n" + HALO_PACK
        mutant = _mutate(_source(ASYNC_MP), old, new)
        assert "shm-bump-before-payload" in _rules(mutant, ASYNC_MP)

    def test_epoch_grant_before_payload_slots(self):
        # Publish the epoch counter before the keff/pnorm/stop slots it
        # guards: workers seeing the new epoch read stale grant values.
        old = (
            "            grant[_KEFF] = keff\n"
            "            grant[_PNORM] = pnorm\n"
            "            grant[_STOP] = float(mode)\n"
            "            grant[_EPOCH] = float(epoch)\n"
        )
        new = (
            "            grant[_EPOCH] = float(epoch)\n"
            "            grant[_KEFF] = keff\n"
            "            grant[_PNORM] = pnorm\n"
            "            grant[_STOP] = float(mode)\n"
        )
        mutant = _mutate(_source(ASYNC_MP), old, new)
        assert "shm-bump-before-payload" in _rules(mutant, ASYNC_MP)

    def test_publish_without_payload(self):
        # Drop the pack but keep the publish: consumers would unpack
        # whatever the edge's halo slots held two iterations ago.
        mutant = _mutate(_source(ASYNC_MP), HALO_PACK + EDGE_PUBLISH, EDGE_PUBLISH)
        assert "shm-bump-before-payload" in _rules(mutant, ASYNC_MP)


class TestOwnershipMutations:
    def test_overlapping_halo_write(self):
        # Write the whole halo instead of this worker's out-edge slots:
        # concurrent workers' writes would overlap within an epoch.
        new = "                        halo[:] = 0.0\n"
        mutant = _mutate(_source(ASYNC_MP), HALO_PACK, new)
        assert "shm-overlapping-write" in _rules(mutant, ASYNC_MP)

    def test_whole_array_flux_write(self):
        # Replace the owned-block store with a whole-array store.
        old = "                    phi_new[rows] = problem.sweep_domain(d, phi[rows], keff)\n"
        new = "                    phi_new[:] = problem.sweep_domain(d, phi[rows], keff)\n"
        mutant = _mutate(_source(ASYNC_MP), old, new)
        assert "shm-overlapping-write" in _rules(mutant, ASYNC_MP)

    def test_worker_writes_parent_owned_factors(self):
        # Workers may read the CMFD factors but only the parent writes
        # them; an in-worker store races the parent's publish.
        old = "            keff = float(grant[_KEFF])\n"
        new = (
            "            keff = float(grant[_KEFF])\n"
            "            factors[:] = 1.0\n"
        )
        mutant = _mutate(_source(ASYNC_MP), old, new)
        assert "shm-untracked-parent-write" in _rules(mutant, ASYNC_MP)


class TestNoFalseClean:
    """Every mutant must be flagged — zero false-clean across the corpus."""

    def test_each_mutation_produces_findings(self):
        cases = [
            # Per-worker progress slot widened to a whole-array store.
            (ASYNC_MP, "            worker_seq[wid] = t + 1\n",
             "            worker_seq[:] = t + 1\n"),
            # Per-worker fission-tally slot widened the same way.
            (ASYNC_MP, "                fission_seq[wid] = t\n",
             "                fission_seq[:] = t\n"),
        ]
        for rel, old, new in cases:
            mutant = _mutate(_source(rel), old, new)
            assert _rules(mutant, rel), f"false-clean mutant for {rel}"

"""Unit tests for run manifests: config hashing, git detection, round trips."""

import pytest

from repro.errors import ObservabilityError
from repro.observability import RunManifest
from repro.observability.manifest import (
    GIT_REV_ENV_VAR,
    config_hash,
    detect_git_rev,
    host_info,
)
from tests.observability.conftest import mini_2d_config


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2.5}) == config_hash({"b": 2.5, "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_sensitive_to_last_float_bit(self):
        import math

        base = 0.1
        assert config_hash({"x": base}) != config_hash({"x": math.nextafter(base, 1.0)})

    def test_nested_structures_hash(self):
        value = {"solver": {"tolerances": [1e-5, 1e-4]}, "name": "run"}
        assert config_hash(value) == config_hash(dict(reversed(value.items())))


class TestDetectGitRev:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(GIT_REV_ENV_VAR, "abc123")
        assert detect_git_rev() == "abc123"

    def test_unknown_outside_checkout(self, monkeypatch, tmp_path):
        monkeypatch.delenv(GIT_REV_ENV_VAR, raising=False)
        assert detect_git_rev(tmp_path / "nowhere") == "unknown"

    def test_reads_head_ref(self, monkeypatch, tmp_path):
        monkeypatch.delenv(GIT_REV_ENV_VAR, raising=False)
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("feedface\n")
        assert detect_git_rev(tmp_path / "subdir") == "feedface"

    def test_detached_head(self, monkeypatch, tmp_path):
        monkeypatch.delenv(GIT_REV_ENV_VAR, raising=False)
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("0123abcd\n")
        assert detect_git_rev(tmp_path) == "0123abcd"


class TestHostInfo:
    def test_keys(self):
        info = host_info()
        assert set(info) == {"python", "implementation", "system", "machine", "cpu_count"}
        assert info["cpu_count"] >= 0


class TestRunManifest:
    def test_collect_from_config(self):
        config = mini_2d_config()
        manifest = RunManifest.collect(config, seed=42)
        assert manifest.geometry == "c5g7-mini"
        assert manifest.seed == 42
        assert len(manifest.config_hash) == 64
        # Same config -> same hash; tweaked config -> different hash.
        assert RunManifest.collect(config).config_hash == manifest.config_hash
        other = mini_2d_config(geometry="c5g7-small")
        assert RunManifest.collect(other).config_hash != manifest.config_hash

    def test_round_trip(self, manifest):
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_from_dict_missing_field_rejected(self, manifest):
        payload = manifest.to_dict()
        del payload["git_rev"]
        with pytest.raises(ObservabilityError, match="missing field"):
            RunManifest.from_dict(payload)

    def test_frozen(self, manifest):
        with pytest.raises(AttributeError):
            manifest.geometry = "other"


class TestResolvedSelection:
    """The manifest names the engine and kernel that ran, not ``auto``."""

    def test_env_selection_recorded_not_auto(self, monkeypatch):
        from repro.engine import ENGINE_ENV_VAR
        from repro.runtime import AntMocApplication
        from repro.runtime.stages import StageName
        from repro.solver.backends import BACKEND_ENV_VAR

        config = mini_2d_config(decomposition={"nx": 3, "ny": 1, "workers": 2})
        assert config.decomposition.engine == "auto"
        assert config.solver.sweep_backend == "auto"
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        unset_hash = RunManifest.collect(config).config_hash

        monkeypatch.setenv(ENGINE_ENV_VAR, "mp-async")
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        app = AntMocApplication(config)
        result = app.run()
        manifest = result.run_report.manifest
        # What ran: the solver swept with the reference kernel, and the
        # mp-async workers reported their mailbox counters.
        solver = app.pipeline.artifact(StageName.TRACK_GENERATION)
        assert {d.sweeper.backend.name for d in solver.domains} == {"reference"}
        assert solver.engine.name == "mp-async"
        assert "halo_wait_ns" in result.run_report.counters
        assert manifest.engine == "mp-async"
        assert manifest.backend == "reference"
        # The hash covers the requested configuration, not the environment.
        assert manifest.config_hash == unset_hash

    def test_explicit_selection_recorded(self, monkeypatch):
        from repro.engine import ENGINE_ENV_VAR
        from repro.solver.backends import BACKEND_ENV_VAR

        monkeypatch.setenv(ENGINE_ENV_VAR, "mp-async")
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        config = mini_2d_config(
            decomposition={"nx": 3, "ny": 1, "engine": "inproc"},
            solver={"max_iterations": 5, "sweep_backend": "numpy"},
        )
        manifest = RunManifest.collect(config)
        assert (manifest.engine, manifest.backend) == ("inproc", "numpy")

    def test_defaults_recorded_when_nothing_requested(self, monkeypatch):
        from repro.engine import DEFAULT_ENGINE, ENGINE_ENV_VAR
        from repro.solver.backends import BACKEND_ENV_VAR, DEFAULT_BACKEND

        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        manifest = RunManifest.collect(mini_2d_config())
        assert (manifest.engine, manifest.backend) == (DEFAULT_ENGINE, DEFAULT_BACKEND)

"""Engine registry, selection policy, engine-timeout resolution, and
registry closure: every registered engine and sweep backend runs here."""

import numpy as np
import pytest

from repro.engine import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    ENGINE_TIMEOUT_ENV_VAR,
    AsyncMpEngine,
    InprocEngine,
    SanitizedAsyncMpEngine,
    engine_names,
    resolve_engine,
    resolve_engine_timeout,
)
from repro.engine.base import DEFAULT_ENGINE_TIMEOUT
from repro.errors import ConfigError
from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_pin_cell_universe
from repro.io.config import SWEEP_BACKENDS
from repro.parallel import DecomposedSolver
from repro.solver.backends import BACKEND_ENV_VAR, backend_names


class TestResolution:
    def test_default_is_inproc(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert isinstance(resolve_engine(None), InprocEngine)
        assert DEFAULT_ENGINE == "inproc"

    def test_explicit_argument(self):
        assert isinstance(resolve_engine("mp-async"), AsyncMpEngine)
        assert isinstance(resolve_engine("inproc"), InprocEngine)

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "mp-async")
        assert isinstance(resolve_engine(None), AsyncMpEngine)

    def test_auto_means_unset(self, monkeypatch):
        # The config default is "auto" so the env var can still apply.
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert isinstance(resolve_engine("auto"), InprocEngine)
        monkeypatch.setenv(ENGINE_ENV_VAR, "mp-async")
        assert isinstance(resolve_engine(" AUTO "), AsyncMpEngine)

    def test_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "mp-async")
        assert isinstance(resolve_engine("inproc"), InprocEngine)

    def test_instance_passthrough(self):
        engine = AsyncMpEngine(workers=3)
        assert resolve_engine(engine) is engine

    def test_name_normalised(self):
        assert isinstance(resolve_engine("  MP-Async "), AsyncMpEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown execution engine"):
            resolve_engine("cuda")

    def test_workers_forwarded(self):
        engine = resolve_engine("mp-async", workers=2)
        assert isinstance(engine, AsyncMpEngine)
        assert engine.workers == 2

    def test_names_list_default_first(self):
        assert engine_names() == ("inproc", "mp-async", "mp-async-sanitize")

    def test_async_engines_resolve_by_name(self):
        assert isinstance(resolve_engine("mp-async"), AsyncMpEngine)
        assert isinstance(
            resolve_engine("mp-async-sanitize"), SanitizedAsyncMpEngine
        )

    @pytest.mark.parametrize("name", ["mp-async", "mp-async-sanitize"])
    def test_timeout_and_pinning_forwarded(self, name):
        engine = resolve_engine(name, workers=2, timeout=42.0, pin_workers=True)
        assert engine.workers == 2
        assert engine.timeout == 42.0
        assert engine.pin_workers is True

    def test_inproc_ignores_process_options(self):
        engine = resolve_engine("inproc", workers=4, timeout=1.0, pin_workers=True)
        assert isinstance(engine, InprocEngine)


class TestTimeoutResolution:
    """CLI/config (explicit) > $REPRO_ENGINE_TIMEOUT > built-in default."""

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(ENGINE_TIMEOUT_ENV_VAR, raising=False)
        assert resolve_engine_timeout() == DEFAULT_ENGINE_TIMEOUT

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(ENGINE_TIMEOUT_ENV_VAR, "123.5")
        assert resolve_engine_timeout() == 123.5

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_TIMEOUT_ENV_VAR, "123.5")
        assert resolve_engine_timeout(7.0) == 7.0

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_explicit_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be positive"):
            resolve_engine_timeout(bad)

    def test_non_positive_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_TIMEOUT_ENV_VAR, "-3")
        with pytest.raises(ConfigError, match="must be positive"):
            resolve_engine_timeout()

    def test_unparseable_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(ConfigError, match="number of seconds"):
            resolve_engine_timeout()

    def test_engines_resolve_timeout_at_construction(self, monkeypatch):
        monkeypatch.setenv(ENGINE_TIMEOUT_ENV_VAR, "55")
        assert AsyncMpEngine().timeout == 55.0
        assert SanitizedAsyncMpEngine().timeout == 55.0
        assert AsyncMpEngine(timeout=9.0).timeout == 9.0


class TestWorkerResolution:
    @pytest.mark.parametrize(
        "requested,domains,expected",
        [
            (None, 4, 4),  # one worker per domain by default
            (2, 4, 2),
            (8, 4, 4),  # never more workers than domains
            (1, 4, 1),
            (None, 1, 1),
        ],
    )
    def test_clamped_to_domains(self, requested, domains, expected):
        assert AsyncMpEngine(workers=requested).resolve_workers(domains) == expected


def _solve_pin_lattice(lattice, engine, backend):
    return DecomposedSolver(
        lattice, 2, 2, num_azim=4, azim_spacing=0.5, num_polar=2,
        max_iterations=8, engine=engine, workers=2, backend=backend,
    ).solve()


@pytest.fixture(scope="module")
def closure_lattice(uo2, moderator):
    pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=2, num_sectors=4)
    return Geometry(Lattice([[pin, pin], [pin, pin]], 1.26, 1.26), name="pin-2x2")


@pytest.fixture(scope="module")
def inproc_results(closure_lattice):
    """``inproc`` solves keyed by backend, each computed once."""
    cache = {}

    def get(backend):
        if backend not in cache:
            cache[backend] = _solve_pin_lattice(closure_lattice, "inproc", backend)
        return cache[backend]

    return get


class TestRegistryClosure:
    """No registered engine or selectable sweep backend goes unrun."""

    def test_backend_choices_are_the_registry(self):
        assert SWEEP_BACKENDS == backend_names()

    @pytest.mark.parametrize("backend", SWEEP_BACKENDS)
    @pytest.mark.parametrize("engine", engine_names())
    def test_engine_and_backend_match_oracles(
        self, closure_lattice, inproc_results, monkeypatch, engine, backend
    ):
        """Bitwise equal to ``inproc`` on the same kernel; the kernel
        itself bitwise equal to ``numpy``, except ``reference`` — the seed
        loop sums in another order and differs in the last bits."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        result = _solve_pin_lattice(closure_lattice, engine, backend)
        oracle = inproc_results(backend)
        assert result.engine == engine
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        baseline = inproc_results("numpy")
        if backend == "reference":
            assert abs(result.keff - baseline.keff) <= 1e-12
            np.testing.assert_allclose(
                result.scalar_flux, baseline.scalar_flux, rtol=1e-12, atol=0.0
            )
        else:
            assert result.keff == baseline.keff
            assert np.array_equal(result.scalar_flux, baseline.scalar_flux)

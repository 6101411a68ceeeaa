"""Arena and engine pooling for resident solve processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ArenaPool, EnginePool
from repro.engine.base import ExecutionEngine
from repro.engine.pool import layout_key

FIELDS = {"flux": (4, 7), "currents": (2, 3)}


class TestLayoutKey:
    def test_insertion_order_is_irrelevant(self):
        reordered = {"currents": (2, 3), "flux": (4, 7)}
        assert layout_key(FIELDS) == layout_key(reordered)

    def test_shapes_differentiate(self):
        assert layout_key(FIELDS) != layout_key({"flux": (4, 8), "currents": (2, 3)})


class TestArenaPool:
    def test_first_acquire_is_a_miss(self):
        pool = ArenaPool()
        arena, hit = pool.acquire(FIELDS)
        try:
            assert not hit
            assert pool.stats() == {"hits": 0, "misses": 1, "free": 0}
        finally:
            arena.close(unlink=True)
            pool.close()

    def test_release_then_acquire_recycles_zeroed(self):
        pool = ArenaPool()
        arena, _ = pool.acquire(FIELDS)
        arena["flux"][:] = 7.5  # dirty it, as a solve would
        pool.release(arena)
        recycled, hit = pool.acquire(FIELDS)
        try:
            assert hit
            assert recycled is arena
            assert np.all(recycled["flux"] == 0.0)
            assert np.all(recycled["currents"] == 0.0)
        finally:
            pool.release(recycled)
            pool.close()

    def test_different_layout_never_recycles(self):
        pool = ArenaPool()
        arena, _ = pool.acquire(FIELDS)
        pool.release(arena)
        other, hit = pool.acquire({"flux": (9, 9)})
        try:
            assert not hit
        finally:
            pool.release(other)
            pool.close()

    def test_max_free_bounds_idle_segments(self):
        pool = ArenaPool(max_free=1)
        a, _ = pool.acquire(FIELDS)
        b, _ = pool.acquire(FIELDS)
        pool.release(a)
        pool.release(b)  # over the bound: unlinked, not pooled
        assert pool.stats()["free"] == 1
        pool.close()

    def test_close_drains_the_free_list(self):
        pool = ArenaPool()
        arena, _ = pool.acquire(FIELDS)
        pool.release(arena)
        pool.close()
        assert pool.stats()["free"] == 0


class TestEnginePool:
    def test_same_signature_shares_an_instance(self):
        pool = EnginePool()
        try:
            first = pool.get("mp-async", workers=2)
            second = pool.get("mp-async", workers=2)
            assert first is second
        finally:
            pool.close()

    def test_different_signatures_get_distinct_instances(self):
        pool = EnginePool()
        try:
            assert pool.get("mp-async", workers=2) is not pool.get(
                "mp-async", workers=3
            )
            assert pool.get("mp-async") is not pool.get("mp-async-sanitize")
        finally:
            pool.close()

    def test_engine_instances_pass_through_unchanged(self):
        class FakeEngine(ExecutionEngine):
            name = "fake"

            def solve(self, problem, comm):  # pragma: no cover
                raise NotImplementedError

        pool = EnginePool()
        try:
            engine = FakeEngine()
            assert pool.get(engine) is engine
        finally:
            pool.close()

    def test_mp_engines_receive_the_shared_arena_pool(self):
        pool = EnginePool()
        try:
            engine = pool.get("mp-async", workers=2)
            assert engine.arena_pool is pool.arena_pool
        finally:
            pool.close()

    def test_inproc_engine_is_poolable_too(self):
        pool = EnginePool()
        try:
            assert pool.get("inproc") is pool.get("inproc")
        finally:
            pool.close()


class TestValidation:
    def test_negative_max_free_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ArenaPool(max_free=-1)

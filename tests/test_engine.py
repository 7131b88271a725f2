"""Unit tests for the execution engine: backends, seed fan-out, errors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    fan_out_seeds,
    get_backend,
)
from repro.utils.rng import spawn_children, spawn_seeds

BACKEND_NAMES = ("serial", "thread", "process")


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"boom at {x}")
    return x


def _seeded_draw(task, seed):
    return (task, int(np.random.default_rng(seed).integers(0, 1_000_000)))


@pytest.fixture(params=BACKEND_NAMES)
def backend(request):
    instance = get_backend(request.param, max_workers=2)
    yield instance
    instance.shutdown()


class TestRegistry:
    def test_available_backends(self):
        assert set(available_backends()) == set(BACKEND_NAMES)

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("thread"), ThreadBackend)
        assert isinstance(get_backend("process"), ProcessBackend)

    def test_none_resolves_to_serial(self):
        assert isinstance(get_backend(None), SerialBackend)

    def test_instance_passes_through(self):
        instance = SerialBackend()
        assert get_backend(instance) is instance

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("bogus")

    def test_case_insensitive(self):
        assert isinstance(get_backend("Thread"), ThreadBackend)

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError):
            ThreadBackend(max_workers=0)


class TestMapTasks:
    def test_results_in_task_order(self, backend):
        assert backend.map_tasks(_square, list(range(10))) == [
            x * x for x in range(10)
        ]

    def test_empty_task_list(self, backend):
        assert backend.map_tasks(_square, []) == []

    def test_error_propagates_with_original_type(self, backend):
        with pytest.raises(ValueError, match="boom at 3"):
            backend.map_tasks(_fail_on_three, [1, 2, 3, 4])

    def test_submit_returns_future(self, backend):
        assert backend.submit(_square, 7).result() == 49

    def test_submit_error_lands_in_future(self, backend):
        future = backend.submit(_fail_on_three, 3)
        assert isinstance(future.exception(), ValueError)

    def test_context_manager_shuts_down(self):
        with get_backend("thread", max_workers=1) as engine:
            assert engine.map_tasks(_square, [2]) == [4]


class TestSeedFanOut:
    def test_seeds_are_ordered_and_deterministic(self):
        a = fan_out_seeds(np.random.default_rng(5), 8)
        b = fan_out_seeds(np.random.default_rng(5), 8)
        assert a == b
        assert len(set(a)) == 8

    def test_matches_spawn_children_streams(self):
        seeds = spawn_seeds(np.random.default_rng(9), 4)
        children = spawn_children(np.random.default_rng(9), 4)
        for seed, child in zip(seeds, children):
            expected = np.random.default_rng(seed).integers(0, 1 << 30, size=5)
            np.testing.assert_array_equal(child.integers(0, 1 << 30, size=5), expected)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_seeds(np.random.default_rng(0), -1)

    def test_map_seeded_identical_across_backends(self):
        reference = None
        for name in BACKEND_NAMES:
            with get_backend(name, max_workers=2) as engine:
                out = engine.map_seeded(_seeded_draw, ["a", "b", "c"], rng=123)
            if reference is None:
                reference = out
            else:
                assert out == reference, name
        assert [task for task, _ in reference] == ["a", "b", "c"]


class TestGatherErrorSelection:
    def test_failure_surfaces_without_waiting_for_slow_tasks(self):
        # Task 1 fails immediately while task 3 (also doomed) is still
        # sleeping: gather must raise task 1's error promptly — inspecting
        # only finished futures — instead of blocking on the slow one.
        import time

        def fail(i):
            if i == 3:
                time.sleep(0.5)
            if i in (1, 3):
                raise RuntimeError(f"task {i}")
            return i

        with get_backend("thread", max_workers=4) as engine:
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="task 1"):
                engine.map_tasks(fail, [0, 1, 2, 3])
            assert time.perf_counter() - start < 0.4

"""The one process-pool supervisor: :class:`ResilientPool` unit tests.

Each test drives the pool directly — kill its workers, watch it
rebuild and resubmit, exhaust its resubmit budget, shut it down.
"""

from concurrent.futures import BrokenExecutor

import pytest

from repro.campaigns.pool import ResilientPool


def square(x):
    return x * x


class TestResilientPool:
    def test_roundtrip(self):
        pool = ResilientPool(2)
        try:
            assert pool.submit(square, 7).result(timeout=30) == 49
            assert pool.rebuilds == 0
        finally:
            pool.shutdown()

    def test_killed_workers_rebuild_transparently(self):
        pool = ResilientPool(2, cooldown_s=0.2)
        try:
            assert pool.submit(square, 2).result(timeout=30) == 4
            pool.kill_workers()
            # The next submit hits the broken pool, heals it, and still
            # returns the right answer — callers never see the break.
            assert pool.submit(square, 3).result(timeout=30) == 9
            assert pool.rebuilds >= 1
            assert pool.resubmits >= 1
        finally:
            pool.shutdown()

    def test_rebuilding_window_reports_backpressure(self):
        pool = ResilientPool(1, cooldown_s=30.0)
        try:
            assert pool.submit(square, 1).result(timeout=30) == 1
            assert not pool.rebuilding
            pool.kill_workers()
            assert pool.submit(square, 2).result(timeout=30) == 4
            assert pool.rebuilding
            assert pool.rebuilding_for > 0
        finally:
            pool.shutdown()

    def test_resubmit_budget_exhausts_to_caller(self):
        pool = ResilientPool(1, max_resubmits=0, cooldown_s=0.1)
        try:
            assert pool.submit(square, 1).result(timeout=30) == 1
            pool.kill_workers()
            with pytest.raises(BrokenExecutor):
                pool.submit(square, 2).result(timeout=30)
        finally:
            pool.shutdown()

    def test_submit_after_shutdown_rejected(self):
        pool = ResilientPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(square, 1)

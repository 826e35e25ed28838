"""The serving tier's fault tolerance: backpressure, request deadlines,
graceful drain, and crash quarantine in served campaigns.

Every test stands up a real server with :func:`start_in_thread` and
asserts the HTTP-visible behaviours — 503 + ``Retry-After`` while the
pool rebuilds, 504 on a blown request deadline, in-flight requests
completing through a drain, and a served campaign quarantining a job
that keeps killing its worker while its siblings complete.  The pool
itself is unit-tested in ``tests/campaigns/test_pool.py``.
"""

import threading
import time

import pytest

from repro.campaigns import registry
from repro.campaigns.faults import faults_spec
from repro.campaigns.store import ResultStore, is_error_result
from repro.serve import ServeClient, ServeConfig, ServeError, start_in_thread
from repro.workloads.didactic import didactic_flowset


@pytest.fixture
def flowset():
    return didactic_flowset(buf=2)


class TestRebuildBackpressure:
    def test_503_with_retry_after_during_cooldown(self, flowset):
        config = ServeConfig(port=0, workers=2, rebuild_cooldown_s=30.0)
        with start_in_thread(config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                # Spawn the workers, then murder them.
                assert "schedulable" in client.analyze(flowset, buf=1)
                handle.service.pool.kill_workers()
                # This request trips the break and rides the rebuilt
                # pool — transparent to the caller.
                assert "schedulable" in client.analyze(flowset, buf=2)
                # But the cooldown window now sheds fresh compute work.
                with pytest.raises(ServeError) as info:
                    client.analyze(flowset, buf=3)
                assert info.value.status == 503
                assert info.value.retry_after is not None
                assert info.value.retry_after > 0
                # Cache hits still serve during the cooldown.
                assert "schedulable" in client.analyze(flowset, buf=1)
                stats = client.stats()["resilience"]
                assert stats["pool_rebuilds"] >= 1
                assert stats["rejected_503"] >= 1
                assert stats["pool_rebuilding"] is True


class TestRequestDeadline:
    def test_slow_request_gets_504(self, monkeypatch, flowset):
        real = registry.execute_job

        def slow(kind, params):
            time.sleep(0.5)
            return real(kind, params)

        monkeypatch.setattr(registry, "execute_job", slow)
        config = ServeConfig(port=0, workers=0, request_timeout_s=0.1)
        with start_in_thread(config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                with pytest.raises(ServeError) as info:
                    client.analyze(flowset, buf=1)
                assert info.value.status == 504
                assert client.stats()["resilience"]["deadline_timeouts"] == 1


class TestGracefulDrain:
    def test_inflight_request_completes_through_drain(
        self, monkeypatch, flowset
    ):
        real = registry.execute_job
        started = threading.Event()

        def slow(kind, params):
            started.set()
            time.sleep(0.4)
            return real(kind, params)

        monkeypatch.setattr(registry, "execute_job", slow)
        config = ServeConfig(port=0, workers=0, drain_timeout_s=10.0)
        handle = start_in_thread(config)
        client = ServeClient(handle.host, handle.port)
        outcome = {}

        def request():
            try:
                outcome["body"] = client.analyze(flowset, buf=1)
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        thread = threading.Thread(target=request)
        thread.start()
        assert started.wait(10), "request never reached the handler"
        handle.close()  # SIGTERM path: stop accepting, drain in-flight
        thread.join(timeout=15)
        client.close()
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert "schedulable" in outcome["body"]


class TestWaitCampaign:
    def test_backoff_counters_move_on_real_server(self):
        spec = faults_spec(
            [{"key": "slow", "mode": "hang", "hang_s": 0.3}],
            name="wait_backoff",
        )
        with start_in_thread(ServeConfig(port=0, workers=0)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                cid = client.submit_campaign(spec)["id"]
                status = client.wait_campaign(cid, timeout=30, poll_s=0.01)
                assert status["state"] == "done"
                assert client.counters["backoff_sleeps"] >= 1

    def test_retry_after_honored_without_backoff(self, monkeypatch):
        client = ServeClient("nowhere.invalid", 1)
        responses = [
            ServeError(503, "rebuilding", retry_after=0.01),
            ServeError(503, "rebuilding", retry_after=0.01),
            {"state": "done"},
        ]

        def fake_campaign(cid):
            item = responses.pop(0)
            if isinstance(item, Exception):
                raise item
            return item

        monkeypatch.setattr(client, "campaign", fake_campaign)
        status = client.wait_campaign("abc", timeout=10, poll_s=0.01)
        assert status["state"] == "done"
        assert client.counters["retry_after_waits"] == 2
        assert client.counters["backoff_sleeps"] == 0

    def test_times_out_with_last_state(self, monkeypatch):
        client = ServeClient("nowhere.invalid", 1)
        monkeypatch.setattr(
            client, "campaign", lambda cid: {"state": "running"}
        )
        with pytest.raises(TimeoutError, match="running"):
            client.wait_campaign("abc", timeout=0.05, poll_s=0.01)


class TestServedCampaignCrash:
    def test_repeat_killer_quarantined_server_keeps_answering(
        self, tmp_path, flowset
    ):
        """A served campaign quarantines a job that keeps killing its
        worker, exactly as the CLI does, instead of failing whole."""
        spec = faults_spec(
            [{"key": "bomb", "mode": "kill"},
             {"key": "a", "value": 1}, {"key": "b", "value": 2}],
            name="served_crash",
        )
        config = ServeConfig(port=0, workers=2, rebuild_cooldown_s=0.05,
                             run_dir=str(tmp_path))
        with start_in_thread(config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                cid = client.submit_campaign(spec)["id"]
                status = client.wait_campaign(cid, timeout=120, poll_s=0.05)
                assert status["state"] == "done", status["error"]
                assert status["partial"] is True
                [item] = status["quarantine"]
                assert item["label"] == "fault bomb"
                assert item["reason"] == "crash"
                assert status["stats"]["jobs_run"] == 2
                stored = ResultStore(
                    tmp_path / "campaigns" / cid[:16]
                ).load().values()
                values = {doc["key"]: doc["value"] for doc in stored
                          if not is_error_result(doc)}
                assert values == {"a": 1, "b": 2}
                # The healed shared pool still serves requests.
                time.sleep(handle.service.pool.rebuilding_for)
                assert "schedulable" in client.analyze(flowset, buf=1)


class TestPartialCampaignStatus:
    def test_quarantined_jobs_reported_in_status(self):
        spec = faults_spec(
            [{"key": "poison", "mode": "raise"}, {"key": "ok", "value": 5}],
            name="serve_partial",
        )
        with start_in_thread(ServeConfig(port=0, workers=0)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                cid = client.submit_campaign(spec)["id"]
                status = client.wait_campaign(cid, timeout=60, poll_s=0.01)
                assert status["state"] == "done"
                assert status["partial"] is True
                [item] = status["quarantine"]
                assert item["label"] == "fault poison"
                assert item["reason"] == "error"
                assert status["stats"]["jobs_quarantined"] == 1

"""Durable result tier: fsync cost, replication lag, failover time.

Three measurements over the durability machinery the chaos suite
exercises end to end (``store_failover`` / ``record_corruption``):

* **fsync throughput** — puts/s into a :class:`ResultStore` under
  each fsync policy (``none`` / ``batch`` / ``always``).  This is the
  price list for the ``--store-fsync`` knob: ``none`` rides the page
  cache, ``batch`` amortises one ``fsync`` per interval, ``always``
  pays a disk barrier per record.
* **replication lag** — median milliseconds between a locally-acked
  put on a primary :class:`StoreDaemon` and the record landing in its
  backup's store, plus puts/s when the primary runs with
  ``ack_mode="replicated"`` (every ack waits for the backup, so the
  rate *is* the durable-commit rate).
* **failover time** — SIGKILL-shaped loss of the primary (``stop()``
  drops every socket mid-flight), a supervisor-style ``promote`` of
  the backup, and the wall clock until a :class:`RemoteStore` group
  client completes its next write — with every previously-acked record
  still readable (``acked_lost`` must record 0).

``record_engine_bench.py`` imports :func:`durability_metrics` for the
``durability`` block of BENCH_engine.json; ``tools/bench_regress.py``
tracks ``durability.failover_time_s`` (lower) and
``durability.fsync_puts_per_s.always`` (higher).  The pytest gates
below enforce the invariants that make those numbers meaningful: every
mode's records survive a reload, replication delivers every put, a
replicated ack means the record is already on the backup, and failover
loses nothing.

Run the gates::

    PYTHONPATH=src python -m pytest benchmarks/bench_durability.py -q
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

from repro.campaigns.store import ResultStore
from repro.serve.stored import RemoteStore, StoreClient, StoreDaemon

from _common import timed

#: Records per fsync-mode burst: large enough that per-put overhead,
#: not harness startup, dominates; small enough that the ``always``
#: mode (one disk barrier per record) stays in smoke-run territory.
FSYNC_PUTS = 128
#: Replication samples for the lag median.
LAG_SAMPLES = 24


def _result(index: int) -> dict:
    return {"verdict": index % 2 == 0, "worst_case": [index, index * 3]}


def _fsync_throughput(mode: str, puts: int = FSYNC_PUTS) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "queries", fsync=mode)
        elapsed, _ = timed(
            lambda: [store.put(f"job-{i}", _result(i)) for i in range(puts)]
        )
        assert len(store) == puts
        # Durability check: a fresh scan of the same file sees them all.
        store.close()
        reloaded = ResultStore(Path(tmp) / "queries")
        assert len(reloaded) == puts
    return round(puts / elapsed, 1)


def _wait_connected(primary: StoreDaemon, deadline_s: float = 5.0) -> None:
    """Block until the backup's stream is attached to ``primary``."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        with primary._ack_cond:
            if primary._replicas:
                return
        time.sleep(0.01)
    raise AssertionError("backup never attached to the primary")


def _pair(tmp: Path, ack_mode: str) -> tuple[StoreDaemon, StoreDaemon]:
    primary = StoreDaemon(tmp / "primary", ack_mode=ack_mode).start()
    backup = StoreDaemon(
        tmp / "backup", replica_of=f"{primary.host}:{primary.port}"
    ).start()
    _wait_connected(primary)
    return primary, backup


def _replication_lag_ms(primary: StoreDaemon, backup: StoreDaemon,
                        client: StoreClient) -> float:
    """Median ms from a locally-acked put to the backup holding it."""
    lags = []
    for i in range(LAG_SAMPLES):
        job = f"lag-{i}"
        start = time.perf_counter()
        client.request({"op": "put", "job": job, "result": _result(i)})
        while backup.store.get(job) is None:
            if time.perf_counter() - start > 5.0:
                raise AssertionError(f"{job} never reached the backup")
            time.sleep(0.0005)
        lags.append((time.perf_counter() - start) * 1000)
    return round(statistics.median(lags), 3)


def _failover(tmp: Path) -> dict:
    """Kill a replicated primary, promote the backup, time the gap."""
    primary, backup = _pair(tmp, ack_mode="replicated")
    group = (
        f"{primary.host}:{primary.port},{backup.host}:{backup.port}"
    )
    remote = RemoteStore([group], timeout=2.0, connect_timeout=0.5)
    acked = {}
    try:
        for i in range(32):
            acked[f"job-{i}"] = remote.put(f"job-{i}", _result(i))

        start = time.perf_counter()
        primary.stop()  # SIGKILL-shaped: every socket dropped mid-flight
        promote = StoreClient(f"{backup.host}:{backup.port}", timeout=2.0)
        assert promote.request({"op": "promote"})["ok"]
        promote.close()
        # First durable write after the loss closes the outage window.
        remote.put("post-failover", {"v": 1})
        failover_s = time.perf_counter() - start

        lost = sum(
            1 for job, result in acked.items()
            if remote.get(job) != result
        )
        return {
            "failover_time_s": round(failover_s, 3),
            "acked_puts": len(acked),
            "acked_lost": lost,
        }
    finally:
        remote.close()
        primary.stop()
        backup.stop()


def durability_metrics() -> dict:
    """The recorded ``durability`` block (see module docstring)."""
    block: dict[str, object] = {
        "fsync_puts_per_s": {
            mode: _fsync_throughput(mode)
            for mode in ("none", "batch", "always")
        }
    }

    with tempfile.TemporaryDirectory() as tmp:
        primary, backup = _pair(Path(tmp), ack_mode="local")
        client = StoreClient(f"{primary.host}:{primary.port}", timeout=2.0)
        try:
            block["replication_lag_ms"] = _replication_lag_ms(
                primary, backup, client
            )
        finally:
            client.close()
            primary.stop()
            backup.stop()

    with tempfile.TemporaryDirectory() as tmp:
        primary, backup = _pair(Path(tmp), ack_mode="replicated")
        client = StoreClient(f"{primary.host}:{primary.port}", timeout=5.0)
        try:
            elapsed, replies = timed(lambda: [
                client.request(
                    {"op": "put", "job": f"rep-{i}", "result": _result(i)}
                )
                for i in range(FSYNC_PUTS)
            ])
            assert all(r["ok"] and r["replicated"] for r in replies)
            block["replicated_puts_per_s"] = round(FSYNC_PUTS / elapsed, 1)
        finally:
            client.close()
            primary.stop()
            backup.stop()

    with tempfile.TemporaryDirectory() as tmp:
        block.update(_failover(Path(tmp)))
    assert block["acked_lost"] == 0, "failover lost acked puts"
    return block


# -- pytest gates ------------------------------------------------------


def test_every_fsync_mode_is_durable():
    rates = {
        mode: _fsync_throughput(mode, puts=32)
        for mode in ("none", "batch", "always")
    }
    assert all(rate > 0 for rate in rates.values()), rates


def test_replication_delivers_every_put(tmp_path):
    primary, backup = _pair(tmp_path, ack_mode="local")
    client = StoreClient(f"{primary.host}:{primary.port}", timeout=2.0)
    try:
        for i in range(50):
            client.request(
                {"op": "put", "job": f"job-{i}", "result": _result(i)}
            )
        deadline = time.monotonic() + 5.0
        while backup.store.end_offset < primary.store.end_offset:
            assert time.monotonic() < deadline, "backup never caught up"
            time.sleep(0.01)
        for i in range(50):
            assert backup.store.get(f"job-{i}") == _result(i)
    finally:
        client.close()
        primary.stop()
        backup.stop()


def test_replicated_ack_means_on_backup(tmp_path):
    primary, backup = _pair(tmp_path, ack_mode="replicated")
    client = StoreClient(f"{primary.host}:{primary.port}", timeout=5.0)
    try:
        reply = client.request(
            {"op": "put", "job": "j", "result": {"v": 9}}
        )
        assert reply == {"ok": True, "stored": True, "replicated": True}
        # No polling: the ack itself promised the backup has it.
        assert backup.store.get("j") == {"v": 9}
    finally:
        client.close()
        primary.stop()
        backup.stop()


def test_failover_loses_no_acked_put(tmp_path):
    outcome = _failover(tmp_path)
    assert outcome["acked_lost"] == 0
    assert outcome["acked_puts"] == 32
    assert outcome["failover_time_s"] < 10.0


if __name__ == "__main__":
    import json

    print(json.dumps(durability_metrics(), indent=2))

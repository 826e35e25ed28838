"""The shared result tier: store daemon, protocol, ring, remote client.

Everything the cluster's correctness rests on is pinned here at the
unit level: framed-JSON round trips, consistent-hash stability and
balance, daemon-side put deduplication (exactly one store line per
distinct job hash), torn-write recovery across a daemon restart, and
the :class:`~repro.serve.stored.RemoteStore` degradation contract — a
dead shard reads as a miss and buffers writes instead of erroring.
"""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.stored import (
    HashRing,
    RemoteStore,
    StoreClient,
    StoreDaemon,
    StoreProtocolError,
    StoreUnavailable,
    read_frame,
    write_frame,
)

#: Frame payloads: raw bytes, UTF-8 text, and well-formed JSON values.
_PAYLOAD = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=32).map(str.encode),
    st.one_of(
        st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
        st.lists(st.integers(), max_size=3),
        st.integers(),
    ).map(lambda value: json.dumps(value).encode()),
)


@pytest.fixture
def daemon(tmp_path):
    with StoreDaemon(tmp_path / "shard") as d:
        yield d


@pytest.fixture
def client(daemon):
    c = StoreClient(f"{daemon.host}:{daemon.port}", timeout=5,
                    connect_timeout=2)
    yield c
    c.close()


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            write_frame(a, {"op": "ping", "blob": "x" * 10_000})
            doc = read_frame(b)
            assert doc == {"op": "ping", "blob": "x" * 10_000}
        finally:
            a.close()
            b.close()

    def test_clean_close_reads_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert read_frame(b) is None
        finally:
            b.close()

    @settings(max_examples=200, deadline=None)
    @given(header=st.one_of(st.none(), st.binary(max_size=4)),
           payload=_PAYLOAD)
    def test_arbitrary_frames_parse_or_protocol_error(self, header, payload):
        """Any length header plus payload reads as a dict, a clean close,
        or a documented protocol/connection error — nothing else."""
        if header is None:
            header = struct.pack(">I", len(payload))  # well-framed
        a, b = socket.socketpair()
        try:
            a.sendall(header + payload)
            a.close()
            try:
                doc = read_frame(b)
            except (StoreProtocolError, ConnectionError):
                return
            assert doc is None or isinstance(doc, dict)
        finally:
            a.close()
            b.close()


class TestHashRing:
    def test_deterministic_across_instances(self):
        nodes = ["a:1", "b:2", "c:3"]
        ring1, ring2 = HashRing(nodes), HashRing(list(reversed(nodes)))
        keys = [f"job-{i}" for i in range(200)]
        assert [ring1.node_for(k) for k in keys] == \
            [ring2.node_for(k) for k in keys]

    def test_roughly_balanced(self):
        ring = HashRing(["a:1", "b:2", "c:3"], replicas=128)
        counts = {"a:1": 0, "b:2": 0, "c:3": 0}
        for i in range(3000):
            counts[ring.node_for(f"k{i}")] += 1
        # Virtual nodes keep every shard within a loose band of fair.
        assert all(500 < count < 1700 for count in counts.values()), counts

    def test_removing_a_node_moves_only_its_keys(self):
        keys = [f"job-{i}" for i in range(1000)]
        full = HashRing(["a:1", "b:2", "c:3"])
        reduced = HashRing(["a:1", "b:2"])
        moved = sum(
            1 for k in keys
            if full.node_for(k) != "c:3"
            and full.node_for(k) != reduced.node_for(k)
        )
        # Keys not owned by the removed node must keep their owner.
        assert moved == 0

    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestStoreDaemon:
    def test_get_put_round_trip(self, client):
        assert client.request({"op": "get", "job": "h1"}) == \
            {"ok": True, "found": False}
        assert client.request(
            {"op": "put", "job": "h1", "result": {"x": [1, 2]}}
        ) == {"ok": True, "stored": True, "replicated": False}
        reply = client.request({"op": "get", "job": "h1"})
        assert reply == {"ok": True, "found": True, "result": {"x": [1, 2]}}

    def test_put_deduplicates(self, daemon, client):
        client.request({"op": "put", "job": "h", "result": 1})
        assert client.request({"op": "put", "job": "h", "result": 1}) == \
            {"ok": True, "stored": False, "replicated": False}
        stats = client.request({"op": "stats"})
        assert stats["entries"] == 1
        assert stats["dedups"] == 1
        # The acceptance grep: exactly one line per distinct hash.
        lines = (daemon.store.path.read_text().strip().splitlines())
        assert len(lines) == 1

    def test_concurrent_puts_one_line(self, daemon):
        address = f"{daemon.host}:{daemon.port}"

        def hammer():
            c = StoreClient(address)
            for i in range(20):
                c.request({"op": "put", "job": f"job-{i}", "result": i})
            c.close()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lines = daemon.store.path.read_text().strip().splitlines()
        hashes = [json.loads(line)["job"] for line in lines]
        assert sorted(hashes) == sorted(set(hashes))  # no duplicates
        assert len(hashes) == 20

    def test_undecodable_frame_counts_as_protocol_error(self, daemon):
        with socket.create_connection((daemon.host, daemon.port),
                                      timeout=5) as conn:
            conn.sendall(struct.pack(">I", 1) + b"\xff")
            assert conn.recv(1) == b""  # the daemon hung up on us
        assert daemon.protocol_errors == 1

    def test_unknown_op_is_an_error_reply(self, client):
        reply = client.request({"op": "explode"})
        assert reply["ok"] is False and "explode" in reply["error"]

    def test_stop_refuses_new_connections(self, tmp_path):
        d = StoreDaemon(tmp_path / "s").start()
        address = f"{d.host}:{d.port}"
        d.stop()
        c = StoreClient(address, timeout=0.5, connect_timeout=0.5)
        with pytest.raises(StoreUnavailable):
            c.request({"op": "ping"})

    def test_torn_write_recovery_on_restart(self, tmp_path):
        d = StoreDaemon(tmp_path / "s").start()
        port = d.port
        d.store.put("good", {"v": 1})
        d.stop()
        # Simulate a daemon killed mid-append: torn trailing line.
        with d.store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"job": "torn", "result": ')
        d2 = StoreDaemon(tmp_path / "s", port=port).start()
        try:
            c = StoreClient(f"{d2.host}:{d2.port}")
            assert c.request({"op": "get", "job": "good"})["found"]
            assert not c.request({"op": "get", "job": "torn"})["found"]
            # The recomputed torn job lands on a fresh line.
            c.request({"op": "put", "job": "torn", "result": {"v": 2}})
            assert c.request({"op": "get", "job": "torn"})["result"] == \
                {"v": 2}
            c.close()
        finally:
            d2.stop()


class TestStoreClient:
    def test_reconnects_after_daemon_bounce(self, tmp_path):
        d = StoreDaemon(tmp_path / "s").start()
        port = d.port
        c = StoreClient(f"{d.host}:{port}")
        c.request({"op": "put", "job": "j", "result": 1})
        d.stop()
        d2 = StoreDaemon(tmp_path / "s", port=port).start()
        try:
            # Stale socket -> transparent reconnect within one request.
            assert c.request({"op": "get", "job": "j"})["found"]
        finally:
            c.close()
            d2.stop()

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError):
            StoreClient("no-port-here")


class TestRemoteStore:
    def test_serves_the_cache_interface(self, daemon):
        rs = RemoteStore([f"{daemon.host}:{daemon.port}"])
        assert rs.persistent is True
        assert rs.get("missing", "default") == "default"
        assert rs.put("j", {"a": 1}) == {"a": 1}
        assert rs.get("j") == {"a": 1}
        rs.close()

    def test_sharding_is_deterministic(self, tmp_path):
        with StoreDaemon(tmp_path / "a") as da, \
                StoreDaemon(tmp_path / "b") as db:
            addrs = [f"{da.host}:{da.port}", f"{db.host}:{db.port}"]
            rs1, rs2 = RemoteStore(addrs), RemoteStore(addrs)
            for i in range(50):
                assert rs1.shard_for(f"j{i}") == rs2.shard_for(f"j{i}")
            rs1.close()
            rs2.close()

    def test_outage_degrades_get_to_miss(self, tmp_path):
        d = StoreDaemon(tmp_path / "s").start()
        address = f"{d.host}:{d.port}"
        rs = RemoteStore([address], timeout=0.5, connect_timeout=0.5)
        rs.put("j", 1)
        d.stop()
        assert rs.get("j", "fallback") == "fallback"
        assert rs.stats()["remote_errors"] >= 1
        rs.close()

    def test_outage_buffers_puts_and_flushes(self, tmp_path):
        d = StoreDaemon(tmp_path / "s").start()
        address, port = f"{d.host}:{d.port}", d.port
        rs = RemoteStore([address], timeout=0.5, connect_timeout=0.5)
        d.stop()
        assert rs.put("offline", {"v": 7}) == {"v": 7}  # no error
        assert rs.stats()["buffered_now"] == 1
        d2 = StoreDaemon(tmp_path / "s", port=port).start()
        try:
            # The next operation flushes the buffer to the revived shard.
            assert rs.get("offline") == {"v": 7}
            stats = rs.stats()
            assert stats["flushed_puts"] == 1
            assert stats["buffered_now"] == 0
            assert d2.store.get("offline") == {"v": 7}
        finally:
            rs.close()
            d2.stop()

    def test_put_buffer_is_bounded(self, tmp_path):
        d = StoreDaemon(tmp_path / "s").start()
        rs = RemoteStore(
            [f"{d.host}:{d.port}"], timeout=0.5, connect_timeout=0.5,
            max_buffered_puts=4,
        )
        d.stop()
        for i in range(10):
            rs.put(f"j{i}", i)
        stats = rs.stats()
        assert stats["buffered_now"] == 4
        assert stats["dropped_puts"] == 6
        rs.close()

"""Record-level integrity: bit-rot is detected, quarantined, healed.

Torn-tail recovery (``test_store_crash.py``) covers a *killed writer*;
these tests cover the other durability threat: bytes that change after
they were committed (bit-rot, a bad disk, a partial overwrite).  The
contract under test, for the one JSONL :class:`ResultStore`:

* every line carries a CRC32 over its canonical payload, so a flipped
  byte inside a record is detected — not just a chopped-off tail —
  whether the damage is there when the store opens or appears later
  under a running reader;
* a corrupt record is **quarantined** (raw bytes into a ``.corrupt``
  sidecar, deduped by offset) and dropped from the index; the store
  file itself is never rewritten;
* every *other* record keeps working, and only the damaged hashes
  recompute — a resumed campaign reruns exactly the damaged jobs and
  aggregates to a byte-identical result;
* a failed append (``ENOSPC``-shaped ``OSError``) degrades the store
  to read-only instead of crashing the run, observably so.
"""

import base64
import json
import threading
import time
import warnings

import pytest

from repro.campaigns.engine import run_campaign
from repro.campaigns.faults import faults_spec
from repro.campaigns.store import (
    CORRUPT_SUFFIX,
    FSYNC_MODES,
    CorruptRecord,
    FsyncPolicy,
    ResultStore,
    StoreCorruptionWarning,
    StoreWriteWarning,
    decode_line,
    quarantined_count,
    render_line,
)
from repro.serve import ServeClient, ServeConfig, start_in_thread
from repro.workloads.didactic import didactic_flowset


def flip_digit(path, line_index):
    """Flip one digit inside line ``line_index``; returns its offset.

    XOR 0x01 on an ASCII digit yields another digit, so the line stays
    valid JSON of the same length — the corruption only the checksum
    can catch.
    """
    lines = path.read_bytes().splitlines(keepends=True)
    offset = sum(len(line) for line in lines[:line_index])
    raw = lines[line_index]
    position = max(
        index for index, byte in enumerate(raw[:-1])
        if chr(byte).isdigit()
    )
    lines[line_index] = (
        raw[:position] + bytes([raw[position] ^ 0x01]) + raw[position + 1:]
    )
    path.write_bytes(b"".join(lines))
    return offset, lines[line_index]


def assert_no_corruption_warning(open_store):
    """Run ``open_store`` asserting it stays quarantine-silent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", StoreCorruptionWarning)
        return open_store()


class TestRecordFormat:
    def test_line_bytes_are_pinned(self):
        """The on-disk record format, byte for byte (resume, replication
        offsets and every existing store file depend on it)."""
        line, normalised = render_line(
            "job-1",
            {"b": (1, 2.5), "a": None, "u": "\u00e9",
             "n": {"z": True, "k": [1e-7, -3]}},
        )
        assert line == (
            b'{"crc":2233056523,"job":"job-1","result":{"a":null,'
            b'"b":[1,2.5],"n":{"k":[1e-07,-3],"z":true},"u":"\\u00e9"}}\n'
        )
        assert normalised == {"a": None, "b": [1, 2.5],
                              "n": {"k": [1e-07, -3], "z": True},
                              "u": "\u00e9"}

    def test_line_carries_matching_crc(self):
        line, normalised = render_line("j", {"v": 1})
        assert decode_line(line) == ("j", normalised)
        damaged = line.replace(b'"v":1', b'"v":2')  # one flipped bit
        with pytest.raises(CorruptRecord, match="crc-mismatch"):
            decode_line(damaged)
        with pytest.raises(CorruptRecord, match="unparseable"):
            decode_line(line[:-9] + b"\n")

    def test_legacy_line_without_crc_accepted(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.path.write_text('{"job": "legacy", "result": 5}\n')
        reopened = assert_no_corruption_warning(
            lambda: ResultStore(tmp_path / "run")
        )
        assert reopened.load() == {"legacy": 5}
        assert reopened.corrupt_records == 0


class TestResultStoreCorruption:
    def test_bitflip_is_quarantined_and_healed_by_recompute(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        for i in range(3):
            store.put(f"j{i}", {"v": i})
        offset, damaged_raw = flip_digit(store.path, 1)

        with pytest.warns(StoreCorruptionWarning, match="crc-mismatch"):
            reopened = ResultStore(tmp_path / "run")
        assert reopened.load() == {"j0": {"v": 0}, "j2": {"v": 2}}
        assert reopened.corrupt_records == 1

        # The sidecar holds the evidence: offset, reason, raw bytes.
        sidecar = store.path.with_name(store.path.name + CORRUPT_SUFFIX)
        assert quarantined_count(store.path) == 1
        entry = json.loads(sidecar.read_text().strip())
        assert entry["offset"] == offset
        assert entry["reason"] == "crc-mismatch"
        assert base64.b64decode(entry["raw"]) == damaged_raw

        # Recompute-and-re-append heals the index; the rescan counts
        # the still-present damaged line but quarantines it only once.
        reopened.put("j1", {"v": 1})
        healed = assert_no_corruption_warning(
            lambda: ResultStore(tmp_path / "run")
        )
        assert healed.load() == {f"j{i}": {"v": i} for i in range(3)}
        assert quarantined_count(store.path) == 1

    def test_unparseable_and_foreign_lines_have_reasons(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put("good", {"v": 1})
        with store.path.open("ab") as handle:
            handle.write(b"###not json###\n")
            handle.write(b'{"x": 1}\n')

        with pytest.warns(StoreCorruptionWarning):
            reopened = ResultStore(tmp_path / "run")
        assert reopened.load() == {"good": {"v": 1}}
        assert reopened.corrupt_records == 2
        sidecar = store.path.with_name(store.path.name + CORRUPT_SUFFIX)
        reasons = {
            json.loads(line)["reason"]
            for line in sidecar.read_text().splitlines()
        }
        assert reasons == {"unparseable", "not-a-record"}

    def test_truncation_is_a_torn_tail_not_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put("j1", {"v": 1})
        store.put("j2", {"v": 2})
        store.path.write_bytes(store.path.read_bytes()[:-5])
        # A chopped tail is the signature of a killed writer: silent
        # recovery, no quarantine theatre.
        reopened = assert_no_corruption_warning(
            lambda: ResultStore(tmp_path / "run")
        )
        assert reopened.load() == {"j1": {"v": 1}}
        assert reopened.corrupt_records == 0
        assert quarantined_count(store.path) == 0

    def test_failed_append_degrades_to_read_only(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put("j1", {"v": 1})
        real_path = store.path
        blocked = tmp_path / "run" / "blocked"
        blocked.mkdir()
        store.path = blocked  # opening a directory for append: OSError
        with pytest.warns(StoreWriteWarning, match="read-only"):
            store.put("j2", {"v": 2})
        store.path = real_path
        assert store.read_only and store.write_errors == 1
        # The run keeps going on the in-memory overlay.
        assert store.get("j2") == {"v": 2}
        store.put("j3", {"v": 3})  # read-only: no second attempt/warning
        assert store.write_errors == 1
        assert "j2" in store and len(store) == 3
        assert store.load() == {f"j{i}": {"v": i} for i in (1, 2, 3)}
        stats = store.durability_stats()
        assert stats["read_only"] is True
        assert stats["write_errors"] == 1


class TestCampaignSurvivesCorruption:
    def test_resume_recomputes_only_the_damaged_job(self, tmp_path):
        entries = [{"key": f"k{i}", "value": i * 11} for i in range(8)]
        spec = faults_spec(entries, name="bitrot")
        baseline = run_campaign(spec)
        run_dir = tmp_path / "run"
        run_campaign(spec, store=run_dir)

        flip_digit(run_dir / "results.jsonl", 2)
        with pytest.warns(StoreCorruptionWarning):
            resumed = run_campaign(spec, store=run_dir)
        assert resumed.stats.jobs_run == 1  # only the damaged hash
        assert resumed.stats.jobs_skipped == len(entries) - 1
        # Byte-identical aggregation: the surviving prefix plus the one
        # recomputation reproduce the undisturbed campaign exactly.
        assert json.dumps(resumed.result, sort_keys=True) == \
            json.dumps(baseline.result, sort_keys=True)


class TestQueryStoreCorruption:
    def test_bitflip_drops_only_the_damaged_hash(self, tmp_path):
        store = ResultStore(tmp_path / "queries")
        for i in range(5):
            store.put(f"q{i}", {"answer": i})
        flip_digit(store.path, 2)

        with pytest.warns(StoreCorruptionWarning, match="crc-mismatch"):
            reopened = ResultStore(tmp_path / "queries")
        assert len(reopened) == 4
        assert reopened.get("q2") is None  # the one recompute
        for i in (0, 1, 3, 4):  # offset index rebuilt past the damage
            assert reopened.get(f"q{i}") == {"answer": i}
        stats = reopened.durability_stats()
        assert stats["corrupt_records"] == 1
        assert quarantined_count(store.path) == 1

        reopened.put("q2", {"answer": 2})
        healed = assert_no_corruption_warning(
            lambda: ResultStore(tmp_path / "queries")
        )
        assert {f"q{i}": healed.get(f"q{i}") for i in range(5)} == {
            f"q{i}": {"answer": i} for i in range(5)
        }


class TestReadPathCorruption:
    """Damage that appears *after* the store opened: every read checks."""

    def test_bitflip_under_open_store_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "queries")
        for i in range(3):
            store.put(f"q{i}", {"answer": i})
        offset, damaged_raw = flip_digit(store.path, 1)

        with pytest.warns(StoreCorruptionWarning, match="crc-mismatch"):
            assert store.get("q1", "default") == "default"
        assert store.corrupt_records == 1
        assert "q1" not in store and len(store) == 2
        entry = json.loads(
            store.path.with_name(store.path.name + CORRUPT_SUFFIX)
            .read_text().strip()
        )
        assert entry["offset"] == offset
        assert base64.b64decode(entry["raw"]) == damaged_raw
        # A second read is a plain miss: quarantined once.
        assert store.get("q1") is None and store.corrupt_records == 1
        assert store.get("q0") == {"answer": 0}

    def test_garbled_line_is_a_miss_not_an_exception(self, tmp_path):
        store = ResultStore(tmp_path / "queries")
        store.put("q0", {"answer": 0})
        store.put("q1", {"answer": 1})
        raw = store.path.read_bytes()
        first = raw.index(b"\n") + 1
        store.path.write_bytes(raw[:first] + b"#" * (len(raw) - first - 1)
                               + b"\n")
        with pytest.warns(StoreCorruptionWarning, match="unparseable"):
            assert store.load() == {"q0": {"answer": 0}}
        assert store.get("q1") is None
        assert store.corrupt_records == 1

    def test_put_if_absent_reappends_a_damaged_record(self, tmp_path):
        store = ResultStore(tmp_path / "queries")
        store.put("q0", {"answer": 0})
        flip_digit(store.path, 0)
        with pytest.warns(StoreCorruptionWarning):
            assert store.put_if_absent("q0", {"answer": 0}) == (
                {"answer": 0}, True
            )
        assert store.put_if_absent("q0", {"answer": 0}) == (
            {"answer": 0}, False
        )
        assert ResultStore(tmp_path / "queries").get("q0") == {"answer": 0}

    def test_server_recomputes_a_byte_identical_answer(self, tmp_path):
        """Through ServeCache: the damaged hash recomputes, same bytes."""
        flowset = didactic_flowset(buf=2)
        config = ServeConfig(
            port=0, workers=0, run_dir=str(tmp_path), cache_size=1
        )
        with start_in_thread(config) as server:
            with ServeClient(server.host, server.port) as client:
                first = client.analyze(flowset, buf=2)
                client.analyze(flowset, buf=3)  # evicts buf=2 from the LRU
                flip_digit(tmp_path / "queries" / "results.jsonl", 0)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", StoreCorruptionWarning)
                    again = client.analyze(flowset, buf=2)
                stats = client.stats()
        assert stats["executed"] == 3  # the damaged hash recomputed
        assert stats["cache"]["store_hits"] == 0
        assert stats["cache"]["store"]["corrupt_records"] == 1
        strip = ("cached", "source")
        assert json.dumps(
            {k: v for k, v in again.items() if k not in strip},
            sort_keys=True,
        ) == json.dumps(
            {k: v for k, v in first.items() if k not in strip},
            sort_keys=True,
        )


class TestFsyncPolicy:
    def test_every_mode_round_trips(self, tmp_path):
        for mode in FSYNC_MODES:
            store = ResultStore(tmp_path / mode, fsync=mode)
            assert store.fsync.mode == mode
            store.put("j", {"mode": mode})
            assert ResultStore(tmp_path / mode).load() == {
                "j": {"mode": mode}
            }

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync mode"):
            ResultStore(tmp_path / "run", fsync="asap")
        with pytest.raises(ValueError):
            FsyncPolicy.coerce("nope")

    def test_sync_frequency_matches_mode(self, tmp_path, monkeypatch):
        import repro.campaigns.store as store_module

        calls = []
        monkeypatch.setattr(
            store_module.os, "fsync", lambda fileno: calls.append(fileno)
        )
        with (tmp_path / "probe").open("w") as handle:
            fileno = handle.fileno()
            for _ in range(10):
                FsyncPolicy("none").sync(fileno)
            assert calls == []
            always = FsyncPolicy("always")
            for _ in range(10):
                always.sync(fileno)
            assert len(calls) == 10
            calls.clear()
            batch = FsyncPolicy("batch", interval_s=3600.0)
            for _ in range(10):
                batch.sync(fileno)
            # One barrier opens the interval; the rest ride the batch.
            assert len(calls) == 1

    def test_first_batch_sync_runs_on_any_clock(self, monkeypatch):
        """The first ``batch`` sync fsyncs even when the monotonic clock
        is still below ``interval_s`` (a freshly booted host)."""
        import repro.campaigns.store as store_module

        calls = []
        monkeypatch.setattr(store_module.os, "fsync", calls.append)
        monkeypatch.setattr(store_module.time, "monotonic", lambda: 1.0)
        FsyncPolicy("batch", interval_s=3600.0).sync(7)
        assert calls == [7]

    def test_batch_fsyncs_the_idle_tail(self, tmp_path, monkeypatch):
        """A burst followed by silence is fsynced within one interval."""
        import repro.campaigns.store as store_module

        synced = threading.Event()
        calls = []

        def fake_fsync(fileno):
            calls.append(fileno)
            synced.set()

        monkeypatch.setattr(store_module.os, "fsync", fake_fsync)
        interval = 0.2
        store = ResultStore(
            tmp_path / "run", fsync=FsyncPolicy("batch", interval_s=interval)
        )
        store.put("j0", {"v": 0})  # opens the interval: synced at once
        assert len(calls) == 1
        synced.clear()
        started = time.monotonic()
        for i in range(1, 5):
            store.put(f"j{i}", {"v": i})  # inside the interval: deferred
        assert len(calls) == 1
        assert synced.wait(interval + 2.0), "idle tail was never fsynced"
        assert time.monotonic() - started < interval + 2.0
        assert len(calls) == 2  # one deferred fsync covers the burst

    def test_close_runs_the_deferred_fsync(self, tmp_path, monkeypatch):
        import repro.campaigns.store as store_module

        calls = []
        monkeypatch.setattr(store_module.os, "fsync", calls.append)
        store = ResultStore(tmp_path / "run", fsync=FsyncPolicy(
            "batch", interval_s=3600.0
        ))
        store.put("j0", {"v": 0})
        store.put("j1", {"v": 1})
        assert len(calls) == 1
        store.close()
        assert len(calls) == 2
        store.close()  # nothing left owed
        assert len(calls) == 2

"""Content-addressed result stores: resumable campaigns, persistent serving.

A :class:`ResultStore` persists one JSON line per completed job in
``results.jsonl`` under a directory — ``{"crc", "job": <hash>,
"result": {...}}`` appended as soon as the job finishes.  It is the one
store behind campaign resume, the serving layer's persistent tier, the
store daemon and its replication log.

* **Index, not results.**  Memory holds a job-hash → byte-offset index;
  results are read back from disk on demand, so a long-running server
  holds ~100 bytes per entry and the caller (the scheduler's result
  table, the serving LRU) decides what stays in memory.
* **One append path.**  Torn-tail newline repair, flush, the
  :class:`FsyncPolicy`, and — on ``OSError`` (``ENOSPC``, revoked
  permissions) — degradation to read-only: later results land in an
  in-memory overlay so the run or server keeps answering.
* **One checked read path.**  ``get``, ``load`` and the hit branch of
  ``put_if_absent`` verify the record's CRC over its stored bytes; a
  damaged record is quarantined to the ``.corrupt`` sidecar, dropped
  from the index and reported as a miss, so its job recomputes.
* **One scan.**  Opening the store indexes every intact line; a torn
  final line (killed writer) is skipped silently, a complete line that
  fails its check is quarantined.

Because lines are keyed by the job's content address
(:func:`repro.campaigns.spec.job_hash`), a campaign killed mid-run can
simply be re-run: the scheduler skips every stored hash, and the final
aggregation is byte-identical to an uninterrupted run because results
are JSON-normalised the moment they are stored.

:class:`MemoryStore` is the ephemeral variant used when no run
directory is given (one-shot campaigns, tests).
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
import warnings
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.campaigns.spec import canonical_json, jsonable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.campaigns.spec import CampaignSpec

RESULTS_NAME = "results.jsonl"
SPEC_NAME = "spec.json"
#: Sidecar next to a store file collecting its quarantined records.
CORRUPT_SUFFIX = ".corrupt"

#: Valid fsync policies for the JSONL store (see :class:`FsyncPolicy`).
FSYNC_MODES = ("none", "batch", "always")

_MISS = object()


class StoreWriteWarning(UserWarning):
    """A store append failed (``ENOSPC``/IO error); writer degraded."""


class StoreCorruptionWarning(UserWarning):
    """A store file held corrupt records; they were quarantined."""


class FsyncPolicy:
    """When appended store lines are forced to stable storage.

    * ``none``   — rely on the OS page cache (a *machine* crash may lose
      the last writes; a killed process loses nothing).  The historical
      behaviour, and the fastest.
    * ``batch``  — ``fsync`` at most once per ``interval_s`` of writes:
      an append inside the interval arms one deferred ``fsync`` for its
      end, so a machine crash loses at most the last interval's
      appends, idle tail included.  :meth:`flush` runs a pending one
      early (store ``close``).
    * ``always`` — ``fsync`` after every append: a ``put`` acknowledged
      is a ``put`` on the platter, at the cost of one disk flush per
      record.
    """

    def __init__(self, mode: str = "none", interval_s: float = 0.05) -> None:
        if mode not in FSYNC_MODES:
            raise ValueError(
                f"fsync mode must be one of {', '.join(FSYNC_MODES)}, "
                f"got {mode!r}"
            )
        if interval_s < 0:
            raise ValueError(f"fsync interval must be >= 0, got {interval_s}")
        self.mode = mode
        self.interval_s = interval_s
        #: Monotonic time of the last fsync; ``None`` until the first.
        self._last_sync: float | None = None
        self._lock = threading.Lock()
        #: Files with appends a batch interval has not fsynced yet.
        self._deferred: set[Path] = set()
        self._timer: threading.Timer | None = None

    def sync(self, fileno: int, path: Path | None = None) -> None:
        """Apply the policy to one freshly-flushed file descriptor.

        ``path`` names the file so a ``batch`` sync skipped now can run
        at the interval's end.
        """
        if self.mode == "none":
            return
        if self.mode == "batch":
            with self._lock:
                now = time.monotonic()
                last = self._last_sync
                if last is not None and now - last < self.interval_s:
                    if path is not None:
                        self._defer(path, last + self.interval_s - now)
                    return
                self._last_sync = now
                self._deferred.discard(path)
        os.fsync(fileno)

    def _defer(self, path: Path, delay: float) -> None:
        """Arm the deferred fsync for ``path`` (caller holds the lock)."""
        self._deferred.add(path)
        if self._timer is None:
            self._timer = threading.Timer(delay, self.flush)
            self._timer.daemon = True
            self._timer.start()

    def flush(self) -> None:
        """Fsync every file whose appends a ``batch`` interval deferred."""
        with self._lock:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            paths, self._deferred = self._deferred, set()
            if paths:
                self._last_sync = time.monotonic()
        for path in paths:
            try:
                fd = os.open(path, os.O_RDONLY)
            except OSError:
                continue  # file gone: nothing left to make durable
            try:
                os.fsync(fd)
            except OSError:
                pass
            finally:
                os.close(fd)

    @classmethod
    def coerce(
        cls, policy: "FsyncPolicy | str | None", interval_s: float = 0.05
    ) -> "FsyncPolicy":
        """``None`` / mode strings / instances -> an instance."""
        if policy is None:
            return cls("none", interval_s)
        if isinstance(policy, FsyncPolicy):
            return policy
        return cls(policy, interval_s)

#: Format tag for quarantined-job records.  A job that keeps failing is
#: recorded in the store as a *structured error document* instead of a
#: result, so the failure is durable (a resumed run knows the job was
#: attempted) without being mistaken for a completed job: the scheduler
#: re-attempts error-documented jobs on the next run.
ERROR_FORMAT = "repro-error/1"


def error_result(
    kind: str, error: str, attempts: int, reason: str
) -> dict[str, Any]:
    """The quarantine document stored for a permanently-failing job.

    ``reason`` is the scheduler's failure class (``"error"``,
    ``"crash"`` or ``"timeout"``); ``error`` is the repr of the last
    exception (or a synthesized description for crashes/timeouts).
    """
    return {
        "format": ERROR_FORMAT,
        "kind": kind,
        "error": error,
        "attempts": attempts,
        "reason": reason,
    }


def is_error_result(result: Any) -> bool:
    """True when a stored result is a quarantine document."""
    return isinstance(result, dict) and result.get("format") == ERROR_FORMAT


def render_line(job_id: str, result: Any) -> tuple[bytes, Any]:
    """One store line and the normalised result it holds.

    The line is the canonical ``{"crc", "job", "result"}`` record (sorted
    keys, compact separators, trailing newline) where ``crc`` is CRC32
    over the canonical ``{"job", "result"}`` payload bytes.  The result
    is serialised once; the normalised copy (tuples -> lists) is parsed
    back from the same text.
    """
    text = canonical_json(result)
    payload = f'{{"job":{json.dumps(job_id)},"result":{text}}}'.encode()
    line = b'{"crc":%d,%s\n' % (zlib.crc32(payload), payload[1:])
    return line, json.loads(text)


class CorruptRecord(ValueError):
    """A stored line that is not an intact record; ``reason`` says why."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def decode_line(line: bytes) -> tuple[str, Any]:
    """``(job, result)`` of one stored line, checked.

    Raises :class:`CorruptRecord` with reason ``unparseable``,
    ``not-a-record`` or ``crc-mismatch``.  The CRC is checked over the
    line's own bytes, never a re-serialisation; legacy lines without a
    ``crc`` field are accepted unverified.
    """
    line = line.strip()
    try:
        record = json.loads(line)
    except ValueError:
        raise CorruptRecord("unparseable") from None
    if not isinstance(record, dict) or not isinstance(record.get("job"), str):
        raise CorruptRecord("not-a-record")
    crc = record.get("crc")
    # The payload is the line with ``{`` in place of its ``{"crc":N,`` head.
    payload = line.partition(b",")[2]
    if crc is not None and crc != zlib.crc32(payload, zlib.crc32(b"{")):
        raise CorruptRecord("crc-mismatch")
    return record["job"], record.get("result")


def quarantine_record(path: Path, offset: int, raw: bytes, reason: str) -> bool:
    """Append one corrupt record to ``path``'s ``.corrupt`` sidecar.

    The main store file is never rewritten — the damaged record simply
    drops out of the index (its hash recomputes and re-appends).  The
    sidecar keeps the raw bytes (base64) plus offset and reason for
    forensics.  Deduped by offset so rescans do not re-quarantine;
    returns True when a new entry was written.
    """
    sidecar = path.with_name(path.name + CORRUPT_SUFFIX)
    if sidecar.exists():
        for line in sidecar.read_text(encoding="utf-8").splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and entry.get("offset") == offset:
                return False
    entry = {
        "offset": offset,
        "reason": reason,
        "raw": base64.b64encode(raw).decode("ascii"),
    }
    with sidecar.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return True


def quarantined_count(path: Path) -> int:
    """Number of records in ``path``'s ``.corrupt`` sidecar."""
    sidecar = path.with_name(path.name + CORRUPT_SUFFIX)
    if not sidecar.exists():
        return 0
    return sum(
        1 for line in sidecar.read_text(encoding="utf-8").splitlines() if line
    )


class MemoryStore:
    """Ephemeral in-process store with the :class:`ResultStore` interface."""

    #: Whether results survive the process (diagnostics, ``/stats``).
    persistent = False

    def __init__(self) -> None:
        self._results: dict[str, Any] = {}

    def prepare(self, spec: "CampaignSpec") -> None:
        """No provenance to write for an in-memory run."""

    def load(self) -> dict[str, Any]:
        """All stored results, keyed by job hash."""
        return dict(self._results)

    def put(self, job_id: str, result: Any) -> Any:
        """Record one finished job; returns the normalised result."""
        normalised = jsonable(result)
        self._results[job_id] = normalised
        return normalised

    def get(self, job_id: str, default: Any = None) -> Any:
        """One stored result by content address (no copy, O(1))."""
        return self._results.get(job_id, default)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._results

    def __len__(self) -> int:
        return len(self._results)


class ResultStore:
    """Append-only JSONL store under a directory; offset-indexed, checked.

    Thread-safe: the serving layer calls ``put`` from executor threads
    and the store daemon from one thread per connection.
    """

    persistent = True

    def __init__(
        self,
        directory: str | Path,
        fsync: FsyncPolicy | str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / RESULTS_NAME
        self.fsync = FsyncPolicy.coerce(fsync)
        self.read_only = False
        self.write_errors = 0
        self.corrupt_records = 0
        self._lock = threading.Lock()
        #: job hash -> byte offset of its latest intact line in ``path``.
        self._index: dict[str, int] = {}
        #: job hash -> result, for entries accepted while read-only
        #: (disk append failed) — keeps the run or server answering
        #: even when the disk under it is full.  Disjoint from the index.
        self._overlay: dict[str, Any] = {}
        #: True when the file ends in a torn line (killed mid-write):
        #: the next append must start on a fresh line or it would merge
        #: with the torn bytes and be lost on the following reload.
        self._needs_newline = False
        self._scan()

    # -- the scan -------------------------------------------------------

    def _lines(self, offset: int = 0) -> Iterator[tuple[int, bytes]]:
        """``(offset, raw)`` per line from byte ``offset`` to the end.

        ``raw`` keeps its newline; a torn final line is the one without.
        """
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            return
        with handle:
            handle.seek(offset)
            for raw in handle:
                yield offset, raw
                offset += len(raw)

    def _scan(self) -> None:
        """Index every intact line; quarantine complete corrupt ones."""
        raw = b"\n"
        for offset, raw in self._lines():
            if not raw.strip():
                continue
            try:
                job_id, _ = decode_line(raw)
            except CorruptRecord as exc:
                # A torn tail (no trailing newline) stays silent: it is
                # the normal signature of a killed writer.
                if raw.endswith(b"\n"):
                    self._quarantine(offset, raw, exc.reason)
                continue
            self._index[job_id] = offset
        self._needs_newline = not raw.endswith(b"\n")

    def read_log(
        self, offset: int, limit: int
    ) -> tuple[list[dict], int, bool]:
        """Up to ``limit`` committed records from byte ``offset``.

        The replication feed: returns ``(records, next_offset, more)``,
        each record ``{"job", "result", "offset"}`` with the offset just
        past its line.  Reads the append-only file directly — committed
        bytes never change, so no lock is needed.  Stops before a torn
        tail; corrupt or blank lines advance the offset without a record
        (the owner's scan or read path quarantines them).
        """
        records: list[dict] = []
        for start, raw in self._lines(offset):
            if len(records) >= limit or not raw.endswith(b"\n"):
                break
            offset = start + len(raw)
            try:
                job_id, result = decode_line(raw)
            except CorruptRecord:
                continue
            records.append(
                {"job": job_id, "result": result, "offset": offset}
            )
        more = len(records) >= limit and offset < self.end_offset
        return records, offset, more

    def _quarantine(self, offset: int, raw: bytes, reason: str) -> None:
        self.corrupt_records += 1
        if quarantine_record(self.path, offset, raw, reason):
            warnings.warn(
                f"{self.path}: corrupt record at offset {offset} ({reason}); "
                f"quarantined to {self.path.name}{CORRUPT_SUFFIX}",
                StoreCorruptionWarning,
                stacklevel=3,
            )

    # -- the checked read path -----------------------------------------

    def _read_locked(self, handle, job_id: str, offset: int) -> Any:
        """The result stored for ``job_id`` at ``offset``, or ``_MISS``.

        A line that fails its check is quarantined (when complete) and
        dropped from the index, so the job reads as a miss and
        recomputes.
        """
        handle.seek(offset)
        raw = handle.readline()
        try:
            _, result = decode_line(raw)
        except CorruptRecord as exc:
            del self._index[job_id]
            if raw.endswith(b"\n"):
                self._quarantine(offset, raw, exc.reason)
            return _MISS
        return result

    def _lookup_locked(self, job_id: str) -> Any:
        """Disk via the checked read, else the overlay; ``_MISS`` if absent."""
        offset = self._index.get(job_id)
        if offset is None:
            return self._overlay.get(job_id, _MISS)
        with self.path.open("rb") as handle:
            return self._read_locked(handle, job_id, offset)

    def get(self, job_id: str, default: Any = None) -> Any:
        """One stored result, read back from disk by offset and checked."""
        with self._lock:
            value = self._lookup_locked(job_id)
        return default if value is _MISS else value

    def load(self) -> dict[str, Any]:
        """All stored results, keyed by job hash (the resume snapshot)."""
        results: dict[str, Any] = {}
        with self._lock:
            if self._index:
                with self.path.open("rb") as handle:
                    for job_id, offset in list(self._index.items()):
                        value = self._read_locked(handle, job_id, offset)
                        if value is not _MISS:
                            results[job_id] = value
            results.update(self._overlay)
        return results

    # -- the append path -----------------------------------------------

    def _append_locked(
        self, job_id: str, line: bytes, normalised: Any
    ) -> None:
        """Append one rendered line while holding ``_lock``.

        On ``OSError`` (``ENOSPC``, revoked permissions, dying disk)
        the store degrades to read-only instead of crashing the run or
        server: this and later results land in the in-memory overlay,
        and the warning plus :meth:`durability_stats` make the
        degradation observable.
        """
        if not self.read_only:
            try:
                with self.path.open("ab") as handle:
                    offset = handle.tell()
                    if self._needs_newline:
                        handle.write(b"\n")
                        offset += 1
                        self._needs_newline = False
                    handle.write(line)
                    handle.flush()
                    self.fsync.sync(handle.fileno(), self.path)
            except OSError as exc:
                self.read_only = True
                self.write_errors += 1
                warnings.warn(
                    f"{self.path}: append failed ({exc}); store degraded to "
                    "read-only — new results held in memory only",
                    StoreWriteWarning,
                    stacklevel=3,
                )
            else:
                self._index[job_id] = offset
                return
        self._index.pop(job_id, None)
        self._overlay[job_id] = normalised

    def put(self, job_id: str, result: Any) -> Any:
        """Append one result line; returns the normalised result."""
        line, normalised = render_line(job_id, result)
        with self._lock:
            self._append_locked(job_id, line, normalised)
        return normalised

    def put_if_absent(self, job_id: str, result: Any) -> tuple[Any, bool]:
        """Append only when the hash is new; ``(result, stored)``.

        The dedupe the store daemon relies on: jobs are deterministic,
        so a second ``put`` of the same content address can only be a
        recomputation of the same bytes — skipping the append keeps the
        store at exactly one line per distinct hash even when several
        front-ends race on the same job.  A stored record that fails
        its check counts as absent and is re-appended.
        """
        with self._lock:
            value = self._lookup_locked(job_id)
            if value is not _MISS:
                return value, False
            line, normalised = render_line(job_id, result)
            self._append_locked(job_id, line, normalised)
        return normalised, True

    # -- lifecycle and diagnostics ---------------------------------------

    def prepare(self, spec: "CampaignSpec") -> None:
        """Pin the directory to one campaign.

        Writes ``spec.json`` on first use and refuses to resume when the
        directory already belongs to a *different* spec — mixing two
        campaigns' results in one store would silently corrupt both.
        """
        spec_path = self.directory / SPEC_NAME
        canonical = spec.canonical()
        if spec_path.exists():
            existing = spec_path.read_text(encoding="utf-8").strip()
            if existing != canonical:
                raise ValueError(
                    f"{self.directory} already holds results for a "
                    "different campaign spec; use a fresh --run-dir"
                )
            return
        spec_path.write_text(canonical + "\n", encoding="utf-8")

    def close(self) -> None:
        """Run any fsync a ``batch`` interval still owes the file."""
        self.fsync.flush()

    @property
    def end_offset(self) -> int:
        """Current byte length of the store file (the replication log
        position: a replica caught up to ``end_offset`` has every
        committed record)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def durability_stats(self) -> dict:
        """Store-level durability counters (``GET /stats``, daemon stats)."""
        with self._lock:
            return {
                "fsync": self.fsync.mode,
                "read_only": self.read_only,
                "write_errors": self.write_errors,
                "corrupt_records": self.corrupt_records,
                "end_offset": self.end_offset,
            }

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._index or job_id in self._overlay

    def __len__(self) -> int:
        with self._lock:
            return len(self._index) + len(self._overlay)


def open_store(
    target: "MemoryStore | ResultStore | str | Path | None",
) -> MemoryStore | ResultStore:
    """Coerce ``None`` / path-likes / stores into a store instance."""
    if target is None:
        return MemoryStore()
    if isinstance(target, (MemoryStore, ResultStore)):
        return target
    return ResultStore(target)

"""Stateful property test: the result stores against a dict model.

A hypothesis :class:`RuleBasedStateMachine` drives a store through
random interleavings of ``put``, ``put_if_absent``, ``get``, ``load``,
reopen, a flipped byte inside a committed record, a tail truncated
mid-line (followed by the reopen a crash implies) and an ``ENOSPC``
append.  The model tracks every line on disk, the offset index and the
read-only overlay, and the store must agree with it exactly: ``get``
returns the model's value or a miss — never another value, never an
exception — and every undamaged record appended survives a reopen.

:class:`MemoryStore` runs the same machine on the rules it supports
(no file, so no reopen, damage or ``ENOSPC``).  A thread race checks
the store's lock.
"""

import shutil
import sys
import tempfile
import threading
import warnings
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.campaigns.store import MemoryStore, ResultStore, StoreWriteWarning

JOBS = [f"k{i}" for i in range(6)]
jobs = st.sampled_from(JOBS)
_MISS = object()

INTACT, DAMAGED, TORN = "intact", "damaged", "torn"


def value(job: str) -> dict:
    """The deterministic result of ``job`` (results are content-addressed)."""
    n = int(job[1:])
    return {"n": n * 37, "pair": (n, n + 1), "name": job}


def expected(job: str) -> dict:
    """``value(job)`` as the store returns it: JSON-normalised."""
    n = int(job[1:])
    return {"n": n * 37, "pair": [n, n + 1], "name": job}


class StoreMachine(RuleBasedStateMachine):
    """The :class:`ResultStore` against the model."""

    persistent = True

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="store-machine-"))
        #: Model of the file: ``[job, state]`` per line, in file order.
        self.lines: list[list] = []
        #: Model of the offset index: job -> position in ``lines``.
        self.indexed: dict[str, int] = {}
        #: Model of the read-only overlay (every put, for MemoryStore).
        self.overlay: set[str] = set()
        self.read_only = not self.persistent
        self.store = self._open()

    def _open(self):
        if not self.persistent:
            return MemoryStore()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # expected quarantine noise
            return ResultStore(self.directory)

    def teardown(self) -> None:
        close = getattr(self.store, "close", None)
        if close is not None:
            close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- model -----------------------------------------------------------

    def _hit(self, job: str) -> bool:
        """Whether the store must answer ``job``; drops a damaged index
        entry the way the store's checked read does."""
        if job in self.overlay:
            return True
        line = self.indexed.get(job)
        if line is None:
            return False
        if self.lines[line][1] == INTACT:
            return True
        del self.indexed[job]
        return False

    def _append(self, job: str) -> None:
        if self.read_only:
            self.indexed.pop(job, None)
            self.overlay.add(job)
            return
        if self.lines and self.lines[-1][1] == TORN:
            self.lines[-1][1] = DAMAGED  # newline repair completes it
        self.lines.append([job, INTACT])
        self.indexed[job] = len(self.lines) - 1

    def _file_lines(self) -> list[bytes]:
        lines = (self.directory / "results.jsonl").read_bytes()
        return lines.splitlines(keepends=True)

    # -- rules -------------------------------------------------------------

    @rule(job=jobs)
    def put(self, job):
        assert self.store.put(job, value(job)) == expected(job)
        self._append(job)

    @precondition(lambda self: self.persistent)
    @rule(job=jobs)
    def put_if_absent(self, job):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result, stored = self.store.put_if_absent(job, value(job))
        assert result == expected(job)
        hit = self._hit(job)
        assert stored is not hit
        if not hit:
            self._append(job)

    @rule(job=jobs)
    def get(self, job):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = self.store.get(job, _MISS)
        assert got == (expected(job) if self._hit(job) else _MISS)

    @rule()
    def load(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loaded = self.store.load()
        assert loaded == {
            job: expected(job)
            for job in set(self.indexed) | self.overlay
            if self._hit(job)
        }

    @precondition(lambda self: self.persistent)
    @rule()
    def reopen(self):
        self.store.close()
        self.store = self._open()
        self.overlay.clear()
        self.read_only = False
        self.indexed = {
            job: position for position, (job, state) in enumerate(self.lines)
            if state == INTACT
        }
        # Every undamaged record appended survives the reopen.
        for job in self.indexed:
            assert self.store.get(job) == expected(job)
        assert self.store.corrupt_records == sum(
            state == DAMAGED for _, state in self.lines
        )

    @precondition(
        lambda self: any(state == INTACT for _, state in self.lines)
    )
    @rule(pick=st.integers(min_value=0))
    def flip_byte(self, pick):
        """Bit-rot: one digit of a committed record changes in place."""
        intact = [i for i, (_, state) in enumerate(self.lines)
                  if state == INTACT]
        target = intact[pick % len(intact)]
        lines = self._file_lines()
        raw = lines[target]
        position = max(i for i, byte in enumerate(raw[:-1])
                       if chr(byte).isdigit())
        lines[target] = (raw[:position] + bytes([raw[position] ^ 0x01])
                         + raw[position + 1:])
        (self.directory / "results.jsonl").write_bytes(b"".join(lines))
        self.lines[target][1] = DAMAGED

    @precondition(lambda self: self.lines and self.lines[-1][1] != TORN)
    @rule(cut=st.integers(min_value=1))
    def truncate_tail(self, cut):
        """A writer killed mid-line, then the reopen the crash implies."""
        lines = self._file_lines()
        last = lines[-1]
        keep = 1 + cut % (len(last) - 2)  # never a whole JSON object
        path = self.directory / "results.jsonl"
        path.write_bytes(b"".join(lines[:-1]) + last[:keep])
        self.lines[-1][1] = TORN
        self.reopen()

    @precondition(lambda self: not self.read_only)
    @rule(job=jobs)
    def enospc_append(self, job):
        """One failed append: the store degrades to read-only."""
        real_path = self.store.path
        blocked = self.directory / "blocked"
        blocked.mkdir(exist_ok=True)
        self.store.path = blocked  # opening a directory to append: OSError
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StoreWriteWarning)
                assert self.store.put(job, value(job)) == expected(job)
        finally:
            self.store.path = real_path
        assert self.store.read_only
        self.read_only = True
        self._append(job)

    @invariant()
    def size_matches_model(self):
        assert len(self.store) == len(self.indexed) + len(self.overlay)
        for job in JOBS:
            assert (job in self.store) == (
                job in self.indexed or job in self.overlay
            )


class MemoryStoreMachine(StoreMachine):
    """The same machine over :class:`MemoryStore` (no file rules)."""

    persistent = False


StoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
MemoryStoreMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)

TestResultStoreMachine = StoreMachine.TestCase
TestMemoryStoreMachine = MemoryStoreMachine.TestCase


def test_concurrent_writers_keep_one_line_per_hash(tmp_path):
    """Threads racing ``put_if_absent``/``put``/``get`` on one store (the
    store daemon's shape) under a tiny switch interval: one line per
    hash, every record intact and readable after a reopen."""
    store = ResultStore(tmp_path / "run", fsync="batch")
    errors = []

    def worker(seed):
        try:
            for step in range(60):
                job = JOBS[(seed + step) % len(JOBS)]
                result, _ = store.put_if_absent(job, value(job))
                assert result == expected(job)
                assert store.get(job) == expected(job)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    store.close()
    assert len(store.path.read_bytes().splitlines()) == len(JOBS)
    reopened = ResultStore(tmp_path / "run")
    assert reopened.load() == {job: expected(job) for job in JOBS}
    assert reopened.corrupt_records == 0

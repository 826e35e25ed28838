"""Bounded result caching for the serving layer.

:class:`ServeCache` is a bounded in-memory LRU in front of an optional
backing store, composed by :class:`~repro.serve.service.AnalysisService`.
Results are keyed by the campaign engine's sha256 content address
(:func:`repro.campaigns.spec.job_hash`).  The persistent tier
(``--run-dir``) is the one JSONL :class:`~repro.campaigns.store.ResultStore`
— offset-indexed, CRC-checked on every read — and a cluster front-end
plugs in a :class:`~repro.serve.stored.RemoteStore` instead.

Lookup order on a request: LRU (fast path, counted as ``hits``), then
the backing store (``store_hits``; the entry is promoted into the LRU),
then a miss (the service computes the job and calls :meth:`put`).  The
counters are exposed verbatim at ``GET /stats`` and asserted by the
end-to-end tests.  The cache is thread-safe: the service calls ``put``
from executor threads to keep disk writes off the event loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.campaigns.spec import jsonable
from repro.campaigns.store import MemoryStore, ResultStore

# Kept only for perfbench: its SERVE_LAYERS wrap this module's
# ``JsonlQueryStore.get``/``.put`` and its CAMPAIGN_LAYERS wrap
# ``repro.campaigns.store.ResultStore.put``, each looked up in the class
# ``__dict__``, and perfbench/ stays fixed so its runs remain comparable.
# Hence ``get`` and ``put`` are defined on ResultStore itself.
JsonlQueryStore = ResultStore

_MISS = object()


class ServeCache:
    """Bounded, thread-safe LRU over an optional write-through store."""

    def __init__(
        self,
        maxsize: int = 1024,
        store: MemoryStore | ResultStore | None = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.store = store
        self._lock = threading.Lock()
        self._lru: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.store_hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, job_id: str) -> tuple[bool, Any]:
        """Look one content address up; returns ``(found, result)``."""
        with self._lock:
            value = self._lru.get(job_id, _MISS)
            if value is not _MISS:
                self._lru.move_to_end(job_id)
                self.hits += 1
                return True, value
        if self.store is not None:
            value = self.store.get(job_id, _MISS)
            if value is not _MISS:
                with self._lock:
                    self.store_hits += 1
                    self._admit(job_id, value)
                return True, value
        with self._lock:
            self.misses += 1
        return False, None

    def put(self, job_id: str, result: Any) -> Any:
        """Cache one computed result (written through to the store).

        Results are JSON-normalised either way, so a response served
        cold, from the LRU, or from a replayed store line is the same
        object.
        """
        if self.store is not None:
            result = self.store.put(job_id, result)
        else:
            result = jsonable(result)
        with self._lock:
            self._admit(job_id, result)
        return result

    def _admit(self, job_id: str, value: Any) -> None:
        self._lru[job_id] = value
        self._lru.move_to_end(job_id)
        while len(self._lru) > self.maxsize:
            self._lru.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._lru

    def stats(self) -> dict:
        """Counter snapshot for ``GET /stats``."""
        with self._lock:
            return {
                "size": len(self._lru),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "store_hits": self.store_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "persistent": bool(
                    getattr(self.store, "persistent", False)
                ),
            }

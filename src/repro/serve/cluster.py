"""The sharded serving cluster: one supervisor, N front-ends, M shards.

``python -m repro cluster`` grows the single-process server into a
self-healing multi-process cluster::

    supervisor ──spawns──> store daemon per shard   (repro.serve.stored)
               ──spawns──> front-end per slot       (repro.serve.server)
               ──pings───> every child over a control pipe

* **One listener, N acceptors** — with ``SO_REUSEPORT`` (Linux) each
  front-end binds its own listening socket to the shared port and the
  kernel load-balances connections across them; the supervisor holds an
  *anchor* socket (bound, never listening) so the port stays reserved
  even while every front-end is down.  Where ``SO_REUSEPORT`` is
  missing, the fallback is a single listener bound by the supervisor
  and inherited by every front-end at fork — all of them accept from
  the one shared queue.
* **Supervision** — the health thread pings each child every
  ``health_interval_s`` over its pipe.  A dead child (SIGKILL, OOM,
  crash) or a wedged one (``max_missed_pings`` silent intervals) is
  restarted with capped exponential backoff; staying up for
  ``stable_reset_s`` resets the backoff.  Killing any one front-end
  loses at most its in-flight requests — the survivors keep accepting,
  so availability never drops.
* **One computation per hash, cluster-wide** — front-ends run with
  ``store_addrs`` pointing at the store daemons: results are
  consistent-hashed over the shards, read through each front-end's
  local LRU, and deduplicated on write by the daemon, so a job computed
  anywhere is a hit everywhere and the store holds exactly one line per
  distinct hash.
* **Cluster-wide /stats** — each ping carries the latest aggregate
  (per-front-end counters, per-shard hit/miss, restarts, generation)
  down to the children, so ``GET /stats`` on *any* front-end reports
  the whole cluster.

Fork start method only (Linux): children inherit the bound sockets and
modules, making restarts milliseconds instead of re-import storms.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.campaigns.store import FSYNC_MODES
from repro.serve.server import serve
from repro.serve.service import AnalysisService, ServeConfig
from repro.serve.stored import StoreClient, StoreDaemon, StoreUnavailable

_CTX = multiprocessing.get_context("fork")


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one cluster (CLI flags map 1:1 onto these)."""

    #: Front-end server processes sharing the listener.
    frontends: int = 2
    #: Bind address of the shared listener.
    host: str = "127.0.0.1"
    #: Shared TCP port; ``0`` binds an ephemeral port (tests, smoke).
    port: int = 0
    #: Root directory of the shared result tier; shard ``i`` persists
    #: under ``<store_dir>/shard-<i>`` (restart-safe, torn-write
    #: recovering, exactly one line per distinct job hash).
    store_dir: str = "cluster-state"
    #: Store-daemon processes the job hashes shard over.
    store_shards: int = 1
    #: Run each shard as a replicated *group*: a primary plus a backup
    #: (``shard-<i>-replica``) tailing its log.  A dead primary is
    #: promoted around (see ``_promote_sibling``) instead of waited
    #: for, so committed results survive a SIGKILL.
    store_group: bool = False
    #: Primary ack discipline: ``"replicated"`` delays each put ack
    #: until the backup confirmed the record (durability), ``"local"``
    #: acks after the local append (throughput).  Only meaningful with
    #: ``store_group``.
    store_ack_mode: str = "replicated"
    #: Fsync policy of the shard stores (``none``/``batch``/``always``).
    store_fsync: str = "none"
    #: Worker processes per front-end (``0`` = in-process threads).
    workers: int = 0
    #: LRU entries per front-end (the read-through tier in front of the
    #: shard daemons).
    cache_size: int = 256
    #: Admission bound per front-end: compute requests beyond this are
    #: shed with 429 + ``Retry-After`` instead of queueing unboundedly.
    max_inflight: int = 64
    #: ``Retry-After`` hint on shed responses (seconds).
    shed_retry_after_s: float = 0.25
    #: Per-request compute deadline passed through to the front-ends.
    request_timeout_s: float | None = None
    #: Seconds between supervisor health pings.
    health_interval_s: float = 0.25
    #: Silent health intervals before a child counts as wedged and is
    #: killed + restarted.
    max_missed_pings: int = 8
    #: First restart delay; doubles per consecutive failure.
    backoff_base_s: float = 0.1
    #: Upper bound on the restart delay.
    backoff_cap_s: float = 5.0
    #: A child alive this long gets its failure count reset.
    stable_reset_s: float = 10.0
    #: Listener strategy: ``"auto"`` picks ``"reuseport"`` where the
    #: platform has ``SO_REUSEPORT`` and ``"shared"`` (one inherited
    #: listener, every front-end accepting from it) elsewhere.
    listener: str = "auto"
    #: Graceful-drain budget per front-end on stop.
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.frontends < 1:
            raise ValueError(
                f"frontends must be >= 1, got {self.frontends}"
            )
        if self.store_shards < 1:
            raise ValueError(
                f"store_shards must be >= 1, got {self.store_shards}"
            )
        if self.health_interval_s <= 0:
            raise ValueError(
                f"health_interval_s must be > 0, got {self.health_interval_s}"
            )
        if self.max_missed_pings < 1:
            raise ValueError(
                f"max_missed_pings must be >= 1, got {self.max_missed_pings}"
            )
        if self.backoff_base_s <= 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                "need 0 < backoff_base_s <= backoff_cap_s, got "
                f"{self.backoff_base_s} / {self.backoff_cap_s}"
            )
        if self.store_ack_mode not in ("local", "replicated"):
            raise ValueError(
                "store_ack_mode must be 'local' or 'replicated', "
                f"got {self.store_ack_mode!r}"
            )
        if self.store_fsync not in FSYNC_MODES:
            raise ValueError(
                f"store_fsync must be one of {', '.join(FSYNC_MODES)}, "
                f"got {self.store_fsync!r}"
            )
        if self.listener not in ("auto", "reuseport", "shared"):
            raise ValueError(
                "listener must be 'auto', 'reuseport' or 'shared', "
                f"got {self.listener!r}"
            )
        # Delegate the rest (port range, workers, cache_size, ...) to
        # the per-front-end config validation.
        self.frontend_config(("127.0.0.1:1",))

    def frontend_config(self, store_addrs: tuple[str, ...]) -> ServeConfig:
        """The ``ServeConfig`` every front-end child runs with."""
        return ServeConfig(
            host=self.host,
            port=self.port,
            workers=self.workers,
            cache_size=self.cache_size,
            store_addrs=store_addrs,
            max_inflight=self.max_inflight,
            shed_retry_after_s=self.shed_retry_after_s,
            request_timeout_s=self.request_timeout_s,
            drain_timeout_s=self.drain_timeout_s,
        )

    def listener_mode(self) -> str:
        """Resolve ``"auto"`` against the platform."""
        if self.listener != "auto":
            return self.listener
        return "reuseport" if hasattr(socket, "SO_REUSEPORT") else "shared"


# ----------------------------------------------------------------------
# child entry points (run after fork; module-level for clarity)


def _service_snapshot(service: AnalysisService) -> dict:
    """The per-front-end counters a pong carries to the supervisor."""
    cache = service.cache.stats()
    return {
        "pid": os.getpid(),
        "requests": service.requests,
        "executed": service.executed,
        "coalesced": service.coalesced,
        "shed_429": service.shed_429,
        "admitted": service.admitted,
        "hits": cache["hits"],
        "store_hits": cache["store_hits"],
        "misses": cache["misses"],
        "uptime_s": round(time.monotonic() - service.started_at, 3),
    }


def _reuseport_listener(host: str, port: int) -> socket.socket:
    """A fresh ``SO_REUSEPORT`` listener on the cluster port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(128)
    return sock


def _frontend_main(index: int, config: ServeConfig, sock, conn) -> None:
    """One front-end child: serve + answer the supervisor's pings.

    ``sock`` is the inherited shared listener (``"shared"`` mode) or
    ``None`` (``"reuseport"`` mode: bind our own listener to the fixed
    cluster port).  The control thread owns the pipe: pings update the
    cluster aggregate in the service and answer with this front-end's
    counters; a vanished supervisor (EOF or re-parented to init)
    triggers the same graceful drain as SIGTERM.
    """
    # The supervisor coordinates shutdown (stop op / SIGTERM); Ctrl-C
    # on a shared terminal must not tear children down un-drained.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if sock is None:
        sock = _reuseport_listener(config.host, config.port)
    service = AnalysisService(config)
    parent_pid = os.getppid()
    holder: dict[str, Any] = {}

    def control() -> None:
        wedged = False
        while True:
            try:
                if not conn.poll(0.2):
                    if os.getppid() != parent_pid:
                        break  # supervisor died: drain and exit
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message.get("op")
            if op == "ping":
                if wedged:
                    continue  # chaos hook: simulate a wedged child
                service.cluster = message.get("cluster")
                try:
                    conn.send({
                        "op": "pong",
                        "index": index,
                        "stats": _service_snapshot(service),
                    })
                except (BrokenPipeError, OSError):
                    break
            elif op == "stop":
                break
            elif op == "chaos_wedge":
                wedged = True
        loop, stop = holder.get("loop"), holder.get("stop")
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass

    async def main() -> None:
        holder["loop"] = asyncio.get_running_loop()
        holder["stop"] = asyncio.Event()
        threading.Thread(
            target=control, name=f"frontend-{index}-control", daemon=True
        ).start()

        def on_started(host: str, port: int, _service) -> None:
            try:
                conn.send({"op": "started", "index": index, "port": port})
            except (BrokenPipeError, OSError):
                pass

        await serve(
            config,
            service=service,
            stop=holder["stop"],
            on_started=on_started,
            sock=sock,
        )

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


def _store_main(
    index: int,
    directory: str,
    host: str,
    port: int,
    conn,
    replica_of: str | None = None,
    ack_mode: str = "local",
    fsync: str = "none",
) -> None:
    """One store-shard child: bind, report the port, serve until stopped.

    The first spawn binds ``port=0`` and reports the resolved port;
    restarts are told the learned port so every front-end's configured
    shard address stays valid across daemon bounces.  With
    ``replica_of`` the child starts as a backup tailing that primary;
    the supervisor promotes it over TCP when the primary dies.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stopping = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stopping.set())
    daemon = StoreDaemon(
        directory,
        host,
        port,
        replica_of=replica_of,
        ack_mode=ack_mode,
        fsync=fsync,
    )
    try:
        daemon.bind()
    except OSError as exc:
        try:
            conn.send({"op": "bind_failed", "index": index, "error": str(exc)})
        except (BrokenPipeError, OSError):
            pass
        raise SystemExit(2)
    try:
        conn.send({
            "op": "bound", "index": index,
            "host": daemon.host, "port": daemon.port,
        })
    except (BrokenPipeError, OSError):
        raise SystemExit(2)
    daemon.start()
    parent_pid = os.getppid()
    while not stopping.is_set():
        try:
            if not conn.poll(0.2):
                if os.getppid() != parent_pid:
                    break
                continue
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message.get("op")
        if op == "ping":
            try:
                conn.send({
                    "op": "pong",
                    "index": index,
                    "stats": {
                        "pid": os.getpid(),
                        "entries": len(daemon.store),
                        "gets": daemon.gets,
                        "hits": daemon.hits,
                        "puts": daemon.puts,
                        "dedups": daemon.dedups,
                        "connections": daemon.connections,
                        "role": daemon.role,
                        "failover_generation": daemon.failover_generation,
                        "corrupt_records": daemon.store.corrupt_records,
                        "fsync": daemon.store.fsync.mode,
                        "ack_downgrades": daemon.ack_downgrades,
                        "replica_offset": daemon.replica_offset,
                        "end_offset": daemon.store.end_offset,
                    },
                })
            except (BrokenPipeError, OSError):
                break
        elif op == "stop":
            break
    daemon.stop()


# ----------------------------------------------------------------------
# supervisor


class _Slot:
    """Parent-side state of one supervised child (front-end or shard)."""

    __slots__ = (
        "kind", "index", "process", "conn", "child_conn", "last_pong",
        "failures", "started_at", "restarts", "restart_at", "stats",
        "address", "shard", "member", "role",
    )

    def __init__(self, kind: str, index: int) -> None:
        self.kind = kind  # "frontend" | "store"
        self.index = index
        self.process = None
        self.conn = None
        self.child_conn = None
        self.last_pong = 0.0
        self.failures = 0
        self.started_at = 0.0
        self.restarts = 0
        self.restart_at: float | None = None  # pending-restart deadline
        self.stats: dict = {}
        self.address: str | None = None  # store slots: learned host:port
        self.shard = index  # store slots: which shard this member serves
        self.member = 0  # store slots: position within the shard group
        self.role: str = "primary"  # store slots: current role

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ClusterSupervisor:
    """Spawn, health-check and restart the cluster's child processes.

    Embeddable (tests, ``tools/cluster_smoke.py``) or driven by
    :func:`run_cluster`.  ``start()`` returns once every store shard
    reported its port and every front-end is accepting; the health
    thread then owns the restart state machine:

    ``running`` --death/wedge--> ``backoff`` --deadline--> ``respawned``

    with the backoff delay doubling per consecutive failure (capped),
    and a child that stays up ``stable_reset_s`` earning a reset.
    """

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.mode = self.config.listener_mode()
        self.host = self.config.host
        self.port = self.config.port
        self._anchor: socket.socket | None = None  # reuseport reservation
        self._listener: socket.socket | None = None  # shared-mode listener
        self._frontends = [
            _Slot("frontend", i) for i in range(self.config.frontends)
        ]
        self._stores: list[_Slot] = []
        members = (
            ((0, "primary"), (1, "backup"))
            if self.config.store_group
            else ((0, "primary"),)
        )
        for shard in range(self.config.store_shards):
            for member, role in members:
                slot = _Slot("store", len(self._stores))
                slot.shard, slot.member, slot.role = shard, member, role
                self._stores.append(slot)
        self.store_failovers = 0
        self.failover_generation = 0
        self._store_addrs: tuple[str, ...] = ()
        self._frontend_config: ServeConfig | None = None
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._health_thread: threading.Thread | None = None
        self.generation = 1  # bumps on every restart, cluster-wide
        self._aggregate: dict = {}

    # -- lifecycle -----------------------------------------------------

    def start(self, timeout: float = 30.0) -> "ClusterSupervisor":
        """Bind the port, spawn shards then front-ends, start pinging."""
        deadline = time.monotonic() + timeout
        self._bind()
        # Primaries first: a backup needs its primary's address to tail.
        primaries = [s for s in self._stores if s.role == "primary"]
        backups = [s for s in self._stores if s.role == "backup"]
        for slot in primaries:
            self._spawn_store(slot)
        self._await_store_addrs(deadline, primaries)
        for slot in backups:
            self._spawn_store(slot)
        if backups:
            self._await_store_addrs(deadline, backups)
        self._store_addrs = tuple(
            ",".join(
                slot.address
                for slot in sorted(
                    (s for s in self._stores if s.shard == shard),
                    key=lambda s: s.member,
                )
            )
            for shard in range(self.config.store_shards)
        )
        self._frontend_config = self.config.frontend_config(self._store_addrs)
        for slot in self._frontends:
            self._spawn_frontend(slot)
        self._await_frontends(deadline)
        self._health_thread = threading.Thread(
            target=self._health_loop, name="cluster-health", daemon=True
        )
        self._health_thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful stop: drain front-ends, stop shards, reap everything."""
        self._stopping.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=timeout)
        for slot in (*self._frontends, *self._stores):
            if slot.alive:
                try:
                    slot.conn.send({"op": "stop"})
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for slot in (*self._frontends, *self._stores):
            if slot.process is None:
                continue
            slot.process.join(max(0.1, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=2)
            self._close_slot_pipes(slot)
        for sock in (self._listener, self._anchor):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    def __enter__(self) -> "ClusterSupervisor":
        """Context-manager support: started cluster in, stopped out."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the cluster on context exit."""
        self.stop()

    # -- binding -------------------------------------------------------

    def _bind(self) -> None:
        if self.mode == "reuseport":
            # Bound but never listening: reserves the port for the
            # front-ends' SO_REUSEPORT binds without ever receiving a
            # connection (the kernel balances only across *listening*
            # sockets), so the port survives even a total child wipeout.
            anchor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            anchor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            anchor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            anchor.bind((self.host, self.port))
            self._anchor = anchor
            self.host, self.port = anchor.getsockname()[:2]
        else:
            # Fallback: one kernel accept queue, inherited by every
            # front-end at fork; all of them accept from it.
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(512)
            self._listener = listener
            self.host, self.port = listener.getsockname()[:2]

    @property
    def address(self) -> tuple[str, int]:
        """Where the cluster serves (host, port)."""
        return self.host, self.port

    @property
    def store_addrs(self) -> tuple[str, ...]:
        """The shard daemon addresses the front-ends are wired to."""
        return self._store_addrs

    # -- spawning ------------------------------------------------------

    def _spawn_frontend(self, slot: _Slot) -> None:
        self._close_slot_pipes(slot)
        parent_conn, child_conn = _CTX.Pipe()
        slot.conn, slot.child_conn = parent_conn, child_conn
        # Frozen config per spawn: the fixed port is already resolved.
        config = replace(self._frontend_config, port=self.port)
        sock = self._listener if self.mode == "shared" else None
        process = _CTX.Process(
            target=_frontend_main,
            args=(slot.index, config, sock, child_conn),
            name=f"repro-frontend-{slot.index}",
            daemon=False,
        )
        process.start()
        slot.process = process
        slot.started_at = time.monotonic()
        slot.last_pong = slot.started_at  # grace: pings start later
        slot.restart_at = None

    def _sibling(self, slot: _Slot) -> _Slot | None:
        """The other member of a store slot's shard group, if any."""
        for other in self._stores:
            if other is not slot and other.shard == slot.shard:
                return other
        return None

    def _spawn_store(self, slot: _Slot) -> None:
        self._close_slot_pipes(slot)
        parent_conn, child_conn = _CTX.Pipe()
        slot.conn, slot.child_conn = parent_conn, child_conn
        suffix = "" if slot.member == 0 else "-replica"
        directory = str(
            Path(self.config.store_dir) / f"shard-{slot.shard:02d}{suffix}"
        )
        # First spawn: ephemeral port.  Restarts: the learned port, so
        # the address baked into every front-end stays valid.
        port = 0
        if slot.address is not None:
            port = int(slot.address.rsplit(":", 1)[1])
        replica_of = None
        if slot.role == "backup":
            sibling = self._sibling(slot)
            replica_of = sibling.address if sibling is not None else None
        process = _CTX.Process(
            target=_store_main,
            args=(
                slot.index, directory, "127.0.0.1", port, child_conn,
                replica_of,
                self.config.store_ack_mode
                if self.config.store_group
                else "local",
                self.config.store_fsync,
            ),
            name=f"repro-stored-{slot.shard}{suffix}",
            daemon=False,
        )
        process.start()
        slot.process = process
        slot.started_at = time.monotonic()
        slot.last_pong = slot.started_at
        slot.restart_at = None

    def _close_slot_pipes(self, slot: _Slot) -> None:
        for conn in (slot.conn, slot.child_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        slot.conn = slot.child_conn = None

    def _await_store_addrs(
        self, deadline: float, slots: list[_Slot] | None = None
    ) -> None:
        for slot in slots if slots is not None else self._stores:
            while slot.address is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not slot.alive:
                    raise RuntimeError(
                        f"store shard {slot.index} did not come up"
                    )
                if slot.conn.poll(min(0.2, remaining)):
                    message = slot.conn.recv()
                    if message.get("op") == "bound":
                        slot.address = (
                            f"{message['host']}:{message['port']}"
                        )
                    elif message.get("op") == "bind_failed":
                        raise RuntimeError(
                            f"store shard {slot.index} bind failed: "
                            f"{message.get('error')}"
                        )

    def _await_frontends(self, deadline: float) -> None:
        pending = set(range(len(self._frontends)))
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"front-ends {sorted(pending)} did not come up"
                )
            for slot in self._frontends:
                if slot.index not in pending:
                    continue
                if not slot.alive:
                    raise RuntimeError(
                        f"front-end {slot.index} died during startup"
                    )
                if slot.conn.poll(0.05):
                    message = slot.conn.recv()
                    if message.get("op") == "started":
                        pending.discard(slot.index)

    # -- health loop ---------------------------------------------------

    def _health_loop(self) -> None:
        interval = self.config.health_interval_s
        while not self._stopping.wait(interval):
            now = time.monotonic()
            with self._lock:
                for slot in (*self._frontends, *self._stores):
                    self._drain_messages(slot, now)
                    self._check_slot(slot, now)
                self._aggregate = self._build_aggregate(now)
                aggregate = self._aggregate
                for slot in self._frontends:
                    if slot.alive and slot.restart_at is None:
                        try:
                            slot.conn.send(
                                {"op": "ping", "cluster": aggregate}
                            )
                        except (BrokenPipeError, OSError):
                            pass
                for slot in self._stores:
                    if slot.alive and slot.restart_at is None:
                        try:
                            slot.conn.send({"op": "ping"})
                        except (BrokenPipeError, OSError):
                            pass

    def _drain_messages(self, slot: _Slot, now: float) -> None:
        if slot.conn is None:
            return
        try:
            while slot.conn.poll(0):
                message = slot.conn.recv()
                op = message.get("op")
                if op == "pong":
                    slot.last_pong = now
                    slot.stats = message.get("stats", {})
                elif op == "bound":
                    slot.address = f"{message['host']}:{message['port']}"
                    slot.last_pong = now
        except (EOFError, OSError):
            pass  # child gone; _check_slot handles it

    def _check_slot(self, slot: _Slot, now: float) -> None:
        """The failover state machine of one child."""
        if slot.restart_at is not None:
            # backoff state: respawn once the deadline passes.
            if now >= slot.restart_at:
                slot.failures += 1
                slot.restarts += 1
                self.generation += 1
                if slot.kind == "frontend":
                    self._spawn_frontend(slot)
                else:
                    self._spawn_store(slot)
            return
        if not slot.alive:
            if (
                slot.kind == "store"
                and self.config.store_group
                and slot.role == "primary"
            ):
                self._promote_sibling(slot)
            self._enter_backoff(slot, now, reason="died")
            return
        silent_for = now - slot.last_pong
        if silent_for > self.config.max_missed_pings * \
                self.config.health_interval_s:
            # Wedged: health pings unanswered while the process lives.
            # SIGKILL (it is not responding to anything gentler) and
            # restart through the same backoff path.
            try:
                slot.process.kill()
            except (OSError, AttributeError):
                pass
            self._enter_backoff(slot, now, reason="wedged")
            return
        if slot.failures and now - slot.started_at > \
                self.config.stable_reset_s:
            slot.failures = 0  # earned its stability back

    def _promote_sibling(self, dead: _Slot) -> None:
        """Failover: flip the dead primary's backup into the primary.

        The promotion is a TCP ``promote`` to the live backup; on
        success the roles swap, so the dead slot respawns (after its
        backoff) as a *backup* tailing the new primary.  If the backup
        is also down, roles stay put and the dead slot respawns as a
        primary — a full-group outage degrades to recomputation, never
        to a stuck cluster.
        """
        sibling = self._sibling(dead)
        if sibling is None or not sibling.alive or sibling.address is None:
            return
        generation = self.failover_generation + 1
        try:
            client = StoreClient(
                sibling.address, timeout=2.0, connect_timeout=1.0
            )
            try:
                reply = client.request(
                    {"op": "promote", "generation": generation}
                )
            finally:
                client.close()
        except StoreUnavailable:
            return
        if not reply.get("ok"):
            return
        dead.role, sibling.role = "backup", "primary"
        self.failover_generation = generation
        self.store_failovers += 1
        print(
            f"cluster: store shard {dead.shard} primary died; promoted "
            f"{sibling.address} (generation {generation})",
            file=sys.stderr,
        )

    def _enter_backoff(self, slot: _Slot, now: float, *, reason: str) -> None:
        delay = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2 ** slot.failures),
        )
        slot.restart_at = now + delay
        print(
            f"cluster: {slot.kind} {slot.index} {reason}; "
            f"restart in {delay:.2f}s (failure #{slot.failures + 1})",
            file=sys.stderr,
        )

    # -- aggregate -----------------------------------------------------

    def _build_aggregate(self, now: float) -> dict:
        totals = {
            "requests": 0, "executed": 0, "coalesced": 0,
            "shed_429": 0, "hits": 0, "store_hits": 0, "misses": 0,
        }
        per_frontend = {}
        for slot in self._frontends:
            if slot.stats:
                per_frontend[str(slot.index)] = {
                    **slot.stats, "alive": slot.alive,
                    "restarts": slot.restarts,
                }
                for key in totals:
                    totals[key] += slot.stats.get(key, 0)
        per_shard = {}
        for slot in self._stores:
            if slot.address is None:
                continue
            stats = dict(slot.stats) if slot.stats else {}
            stats["alive"] = slot.alive
            stats["restarts"] = slot.restarts
            stats["role"] = slot.role
            stats["shard"] = slot.shard
            if "gets" in stats:
                stats["shard_misses"] = stats["gets"] - stats.get("hits", 0)
            per_shard[slot.address] = stats
        return {
            "frontends": len(self._frontends),
            "alive": sum(1 for s in self._frontends if s.alive),
            "generation": self.generation,
            "restarts": {
                "frontend": sum(s.restarts for s in self._frontends),
                "store": sum(s.restarts for s in self._stores),
            },
            "totals": totals,
            "per_frontend": per_frontend,
            "per_shard": per_shard,
            "durability": {
                "store_group": self.config.store_group,
                "ack_mode": (
                    self.config.store_ack_mode
                    if self.config.store_group
                    else "local"
                ),
                "fsync": self.config.store_fsync,
                "store_failovers": self.store_failovers,
                "failover_generation": self.failover_generation,
                "corrupt_records": sum(
                    s.stats.get("corrupt_records", 0) for s in self._stores
                ),
                "replication_lag_bytes": sum(
                    max(
                        0,
                        (self._sibling(s) or s).stats.get("end_offset", 0)
                        - s.stats.get("replica_offset", 0),
                    )
                    for s in self._stores
                    if s.role == "backup" and s.stats
                ),
            },
        }

    def aggregate(self) -> dict:
        """The latest cluster-wide aggregate (what /stats reports)."""
        with self._lock:
            return dict(self._aggregate) if self._aggregate else \
                self._build_aggregate(time.monotonic())

    # -- chaos / test hooks --------------------------------------------

    def frontend_pids(self) -> list[int | None]:
        """Live front-end PIDs by slot (None while restarting)."""
        return [
            slot.process.pid if slot.alive else None
            for slot in self._frontends
        ]

    def kill_frontend(self, index: int = 0) -> int:
        """SIGKILL one front-end (chaos); returns the killed PID."""
        with self._lock:
            slot = self._frontends[index]
            if not slot.alive:
                raise RuntimeError(f"front-end {index} is not running")
            pid = slot.process.pid
            slot.process.kill()
        return pid

    def kill_store(self, index: int = 0, *, role: str = "primary") -> int:
        """SIGKILL one store member (chaos); returns the killed PID.

        Without ``store_group``, ``index`` is the shard slot.  With it,
        ``index`` is the *shard* and ``role`` picks the member holding
        that role right now (default: the current primary).
        """
        with self._lock:
            if self.config.store_group:
                slot = next(
                    (
                        s for s in self._stores
                        if s.shard == index and s.role == role
                    ),
                    None,
                )
                if slot is None:
                    raise RuntimeError(
                        f"store shard {index} has no {role} member"
                    )
            else:
                slot = self._stores[index]
            if not slot.alive:
                raise RuntimeError(f"store shard {index} is not running")
            pid = slot.process.pid
            slot.process.kill()
        return pid

    def wedge_frontend(self, index: int = 0) -> None:
        """Make one front-end stop answering pings (chaos hook)."""
        with self._lock:
            slot = self._frontends[index]
            if not slot.alive:
                raise RuntimeError(f"front-end {index} is not running")
            slot.conn.send({"op": "chaos_wedge"})

    def wait_all_alive(self, timeout: float = 30.0) -> bool:
        """Block until every child is up and ponging (True on success)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                ok = all(
                    slot.alive and slot.restart_at is None
                    for slot in (*self._frontends, *self._stores)
                )
            if ok:
                return True
            time.sleep(0.05)
        return False


# ----------------------------------------------------------------------
# CLI entry point


def run_cluster(config: ClusterConfig | None = None) -> int:
    """Blocking entry point of ``python -m repro cluster``."""
    config = config or ClusterConfig()
    supervisor = ClusterSupervisor(config)
    try:
        supervisor.start()
    except (OSError, RuntimeError) as exc:
        print(f"cluster: failed to start: {exc}", file=sys.stderr)
        supervisor.stop(timeout=5)
        return 2
    host, port = supervisor.address
    print(
        f"repro-cluster serving on http://{host}:{port} "
        f"({config.frontends} front-ends [{supervisor.mode}], "
        f"{config.store_shards} store shards under {config.store_dir})",
        file=sys.stderr,
    )
    stopped = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stopped.set())
    try:
        stopped.wait()
    except KeyboardInterrupt:
        pass
    print("repro-cluster: shutting down", file=sys.stderr)
    supervisor.stop()
    return 0

"""Statistics, digests and the calibration probe of the benchmark."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import statistics
import time

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Probe runs per calibration; the median is reported.
PROBE_REPEATS = 3
#: Slots of the probe's pointer-chase table (about 40 MB of objects, far
#: beyond the caches, as the campaigns' working sets are) and steps taken.
CHASE_SLOTS = 1 << 20
CHASE_STEPS = 150_000
#: Median probe time on the reference host (a quiet 2-vCPU Xeon VM).
#: Timing metrics are reported at this host speed: see :func:`host_scaled`.
REFERENCE_PROBE_S = 0.080


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refusing thin tails.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond the returned rank (p99 needs 1000 samples, p50 needs 20).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def digest(*parts) -> str:
    """sha256 over the canonical JSON of ``parts`` (first 16 hex digits)."""
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB.

    Read from ``/proc`` rather than ``wait4`` rusage: a child's
    ``ru_maxrss`` also counts the parent's resident set at the moment the
    child was forked, which is the benchmark process, not the program.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for process {pid}")


@functools.cache
def _chase_table() -> list[int]:
    """One fixed random cycle through :data:`CHASE_SLOTS` slots."""
    order = list(range(CHASE_SLOTS))
    random.Random(0).shuffle(order)
    table = [0] * CHASE_SLOTS
    for here, there in zip(order, order[1:] + order[:1]):
        table[here] = there
    return table


def _probe_once() -> float:
    table = _chase_table()
    start = time.perf_counter()
    slot = 0
    for _ in range(CHASE_STEPS):
        slot = table[slot]
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    block = bytes(range(256)) * 4096
    hasher = hashlib.sha256()
    for _ in range(16):
        hasher.update(block)
    text = json.dumps([{"k": i, "v": [i, acc] * 4} for i in range(4000)])
    json.loads(text)
    return time.perf_counter() - start


def calibration_probe() -> float:
    """Median seconds of a fixed, repo-independent CPU workload.

    Interpreter, memory-bound pointer chasing, hashing and JSON work
    that no change to the program can touch: it measures the speed of
    the host right now.  The compute part alone follows the campaigns
    less closely when the host's slowdown is in its memory system.
    """
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


def host_scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, restated at
    the reference host speed.

    A shared host's speed drifts by a third within minutes (other
    tenants), and every timing of a run drifts with it.  The probe runs
    the same work whatever the program does, so the ratio removes the
    host's share of a change and keeps all of the program's.
    """
    return seconds * REFERENCE_PROBE_S / probe_s

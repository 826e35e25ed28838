"""Gate on the BENCH_engine.json trajectory: no silent perf regressions.

Compares the latest entry of ``BENCH_engine.json`` against each of the
last :data:`BASELINES` earlier entries with the same label and backend
(the C kernels and the numpy oracle are different trajectories) and fails
(exit 1) when any tracked metric regressed by more than the threshold
(default 20%) against any of them — so a creep of 15% per entry trips
the gate within two entries instead of never.  Wired into ``make smoke`` so a PR whose
bench run slowed a hot path down cannot land quietly; run it any time
with::

    python tools/bench_regress.py [--threshold 0.2] [--file PATH]

Tracked metrics are listed in :data:`TRACKED` as dotted paths into the
entry's ``metrics`` object, each tagged with its direction (lower or
higher is better).  Metrics missing from either entry are skipped (new
blocks appear over time), as are wall-clock values beneath a small
absolute floor where scheduler noise, not code, dominates.  With fewer
than two entries the script reports and exits 0.

Entries are recorded by different sessions on whatever hardware and
load the day brings, so raw wall-clock comparisons confuse *machine
drift* (every timing uniformly slower on a busier or downclocked box)
with *code regressions* (one hot path slower because a change made it
slower).  The gate separates the two by self-calibration: the median
speed ratio across all speed-dependent tracked metrics (durations and
rates) estimates the drift, and each metric is normalised by it before
the threshold check.  A genuine single-path regression still trips the
gate — the median stays ~1 when the other paths are flat — while a
20% slower machine no longer fails every duration at once.  The
estimate needs at least :data:`MIN_DRIFT_SAMPLES` speed metrics
present in both entries; below that the comparison stays raw.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: (dotted metric path, "lower" | "higher" is better).
TRACKED = (
    ("graph_build_ms.400", "lower"),
    ("analyse_set_ms", "lower"),
    ("recurrence_ms.SB", "lower"),
    ("recurrence_ms.IBN", "lower"),
    ("fig4_ci_s", "lower"),
    ("sim.didactic_search_speedup", "higher"),
    ("sim.mesh8x8_speedup", "higher"),
    ("sim.mesh8x8_cycles_per_s", "higher"),
    ("campaign.jobs_per_s", "higher"),
    ("serve.cold_rps", "higher"),
    ("serve.warm_rps", "higher"),
    ("batch.sweep.batched_scenarios_per_s", "higher"),
    ("batch.sweep.speedup", "higher"),
    ("allocate.evals_per_s", "higher"),
    ("allocate.time_to_optimum_s", "lower"),
    # Speed-independent: evaluations the monotonicity pruning avoids.
    ("allocate.pruning_factor", "higher"),
    # Optional-backend metrics: absent on numpy-only hosts (the C
    # extension never built), and lookup() skips absent paths.
    ("backend.kernel_b256.cpu_speedup", "higher"),
    ("backend.sim_8x8.cpu_speedup", "higher"),
    ("backend.sim_8x8.cext_cycles_per_s", "higher"),
    ("durability.fsync_puts_per_s.always", "higher"),
    ("durability.failover_time_s", "lower"),
    ("chaos.scenarios_passed", "higher"),
    ("cluster.best_rps", "higher"),
)

#: Wall-clock values smaller than these floors are all scheduler noise;
#: comparisons against them would make the gate flaky.
FLOORS = {"ms": 1.0, "s": 0.05}

#: Same-label entries the latest one is compared against.
BASELINES = 3

#: Minimum speed-dependent metrics shared by both entries before the
#: machine-drift estimate is trusted; below this, compare raw.
MIN_DRIFT_SAMPLES = 3


def lookup(metrics: dict, path: str):
    """Resolve a dotted path; None when any hop is missing."""
    node = metrics
    for hop in path.split("."):
        if not isinstance(node, dict) or hop not in node:
            return None
        node = node[hop]
    return node if isinstance(node, (int, float)) else None


def unit_floor(path: str) -> float:
    """Noise floor for a metric, derived from its unit suffix.

    Any path segment may carry the unit (``recurrence_ms.SB`` keys its
    per-analysis values under the ``_ms`` block); rates (``*_per_s``)
    are not durations and get no floor.
    """
    for hop in reversed(path.split(".")):
        if hop.endswith("_per_s"):
            return 0.0
        for suffix, floor in FLOORS.items():
            if hop.endswith(f"_{suffix}"):
                return floor
    return 0.0


def speed_kind(path: str) -> str | None:
    """How machine speed moves a metric, from its unit suffix.

    ``"duration"`` (``*_ms``/``*_s``: slower box -> larger),
    ``"rate"`` (``*_per_s``/``*_rps``: slower box -> smaller), or
    ``None`` for speed-independent values (counts, speedup ratios).
    """
    for hop in reversed(path.split(".")):
        if hop.endswith("_per_s") or hop.endswith("_rps"):
            return "rate"
        for suffix in FLOORS:
            if hop.endswith(f"_{suffix}"):
                return "duration"
    return None


def machine_drift(previous: dict, latest: dict) -> tuple[float, int]:
    """Estimated machine-speed ratio between two entries.

    Returns ``(drift, samples)``: the median slowdown factor across
    every speed-dependent tracked metric present in both entries
    (>1 = the latest entry's box ran slower), and how many metrics
    fed the median.  With fewer than :data:`MIN_DRIFT_SAMPLES`
    samples the estimate is untrustworthy and ``(1.0, samples)`` is
    returned.
    """
    ratios = []
    for path, _direction in TRACKED:
        kind = speed_kind(path)
        if kind is None:
            continue
        before = lookup(previous.get("metrics", {}), path)
        after = lookup(latest.get("metrics", {}), path)
        if before is None or after is None or before <= 0 or after <= 0:
            continue
        floor = unit_floor(path)
        if abs(before) < floor and abs(after) < floor:
            continue
        ratios.append(after / before if kind == "duration"
                      else before / after)
    if len(ratios) < MIN_DRIFT_SAMPLES:
        return 1.0, len(ratios)
    return statistics.median(ratios), len(ratios)


def compare(previous: dict, latest: dict, threshold: float) -> list[str]:
    """Human-readable regression reports (empty = gate passes)."""
    problems = []
    drift, _samples = machine_drift(previous, latest)
    for path, direction in TRACKED:
        before = lookup(previous.get("metrics", {}), path)
        after = lookup(latest.get("metrics", {}), path)
        if before is None or after is None:
            continue
        floor = unit_floor(path)
        if abs(before) < floor and abs(after) < floor:
            continue
        if before <= 0:
            continue
        kind = speed_kind(path)
        if kind == "duration":
            adjusted = after / drift
        elif kind == "rate":
            adjusted = after * drift
        else:
            adjusted = after
        change = (adjusted - before) / before
        note = "" if drift == 1.0 else f" net of x{drift:.2f} drift"
        if direction == "lower" and change > threshold:
            problems.append(
                f"{path}: {before} -> {after} "
                f"(+{change * 100:.1f}%{note}, lower is better)"
            )
        elif direction == "higher" and change < -threshold:
            problems.append(
                f"{path}: {before} -> {after} "
                f"({change * 100:.1f}%{note}, higher is better)"
            )
    return problems


def backend_of(entry: dict) -> str:
    """The backend an entry was recorded on; entries from before the
    backend seam carry no ``backend`` key and ran the numpy paths."""
    return entry.get("backend") or "numpy"


def baselines_for(history: list) -> list[dict]:
    """The earlier entries comparable to the latest one, newest first.

    Only entries recorded on the latest entry's backend qualify: a
    first ``cext`` run is not a speedup over ``numpy`` history, and a
    host that falls back to numpy is not a regression against ``cext``.
    Among those, up to :data:`BASELINES` entries with the latest
    entry's own label (``smoke`` entries compare against previous smoke
    runs, whatever ad-hoc ``bench-record LABEL=...`` entries — possibly
    taken at another scale or under load — were appended in between);
    the immediately preceding one only when the label has no history.
    Empty when the backend has no history at all.
    """
    latest = history[-1]
    same_backend = [
        entry for entry in reversed(history[:-1])
        if backend_of(entry) == backend_of(latest)
    ]
    same_label = [
        entry for entry in same_backend
        if entry.get("label") == latest.get("label")
    ]
    return same_label[:BASELINES] or same_backend[:1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when the latest bench entry shows a tracked "
        "metric regressing beyond the threshold against any of the last "
        f"{BASELINES} same-label, same-backend entries"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="relative regression tolerance (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--file", type=Path, default=DEFAULT_FILE,
        help="BENCH_engine.json location",
    )
    args = parser.parse_args(argv)
    if not args.file.exists():
        print(f"bench-regress: {args.file} not found; nothing to gate")
        return 0
    history = json.loads(args.file.read_text(encoding="utf-8"))
    if len(history) < 2:
        print(
            f"bench-regress: only {len(history)} entry in {args.file.name}; "
            "nothing to compare"
        )
        return 0
    latest = history[-1]
    baselines = baselines_for(history)
    if not baselines:
        print(
            f"bench-regress: no earlier {backend_of(latest)} entry to "
            f"compare {latest.get('label')}@{latest.get('revision')} "
            "against; nothing to gate"
        )
        return 0
    failed = False
    for previous in baselines:
        problems = compare(previous, latest, args.threshold)
        label = (
            f"{previous.get('label')}@{previous.get('revision')} -> "
            f"{latest.get('label')}@{latest.get('revision')}"
        )
        drift, samples = machine_drift(previous, latest)
        if abs(drift - 1.0) > 0.05:
            print(
                f"bench-regress: machine drift x{drift:.2f} "
                f"(median of {samples} speed metrics) normalised out "
                f"({label})"
            )
        if problems:
            failed = True
            print(f"bench-regress: REGRESSION {label}")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(
                f"bench-regress: ok ({label}, "
                f"threshold {args.threshold * 100:.0f}%)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

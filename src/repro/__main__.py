"""Top-level command line: analyse flow-set files and run campaigns.

Usage::

    python -m repro analyze traffic.json                  # IBN by default
    python -m repro analyze traffic.json --analysis all --buf 16
    python -m repro sizing traffic.json                   # buffer headroom
    python -m repro allocate traffic.json --hi 8          # buffer allocation
    python -m repro experiments fig4a --scale default     # campaign runner
    python -m repro experiments validate --workers 4      # sim vs bounds
    python -m repro campaign spec.json --run-dir runs/x   # declarative run
    python -m repro serve --port 8177 --workers 4         # HTTP service
    python -m repro cluster --frontends 4 --port 8177     # sharded cluster
    python -m repro stored cluster-state/shard-00         # one store shard
    python -m repro backend --probe                       # backend status
    python -m repro --backend cext analyze traffic.json   # compiled kernels

``analyze`` reads the JSON format of :mod:`repro.io`; ``experiments``
forwards to :mod:`repro.experiments.runner` (its ``validate`` campaign
sweeps simulated worst cases against the SB/IBN/XLWX bounds across
buffer depths; honour ``REPRO_SCALE=ci|default|paper`` or ``--scale``).
``campaign`` runs a declarative :class:`repro.campaigns.CampaignSpec`
JSON document on the campaign engine: ``--run-dir`` makes the run
resumable (re-running skips every job already in the content-addressed
result store), ``--csv-dir``/``--json-dir`` select exporters, and
``--dry-run`` prints the expanded job list without running anything.
``serve`` exposes all of the above as JSON endpoints
(:mod:`repro.serve`): ``POST /analyze``, ``POST /sizing``,
``POST /campaign`` + ``GET /campaign/<id>``, ``GET /healthz``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.analyses import (
    ALL_COMPARISON,
    ANALYSES_BY_NAME,
    analysis_by_name,
)
from repro.core.engine import analyze, compare
from repro.core.report import comparison_table, result_table
from repro.core.sizing import (
    length_scaling_margin,
    max_schedulable_buffer_depth,
    sizing_summary,
    slack_table,
)
from repro.io import load_flowset, result_to_dict

#: CLI selector -> analysis class (shared with the serving layer).
_ANALYSES = ANALYSES_BY_NAME


def _load(path: str, buf: int | None):
    flowset = load_flowset(path)
    if buf is not None:
        flowset = flowset.on_platform(flowset.platform.with_buffers(buf))
    return flowset


def cmd_analyze(args) -> int:
    """``analyze``: bound a flow-set file; exit 1 on a deadline miss."""
    flowset = _load(args.flowset, args.buf)
    if args.analysis == "all":
        results = compare(
            flowset, [analysis_by_name(name) for name in ALL_COMPARISON]
        )
        print(comparison_table(results))
        print("\n(SB and XLW16 are optimistic under MPB - reference only)")
        worst = results[f"IBN{flowset.platform.buf}"]
    else:
        analysis = analysis_by_name(args.analysis)
        worst = analyze(flowset, analysis, stop_at_deadline=False)
        print(result_table(worst))
    if args.json:
        print(json.dumps(result_to_dict(worst), indent=2, sort_keys=True))
    return 0 if worst.schedulable else 1


def cmd_sizing(args) -> int:
    """``sizing``: slack, buffer-depth and payload headroom of a file."""
    flowset = _load(args.flowset, args.buf)
    if args.json:
        print(json.dumps(
            sizing_summary(flowset, max_depth=args.max_depth),
            indent=2, sort_keys=True,
        ))
        return 0
    print(slack_table(flowset))
    print()
    depth = max_schedulable_buffer_depth(flowset, hi=args.max_depth)
    if depth.max_depth is None:
        print("buffer sizing: unschedulable even with 1-flit buffers")
    elif depth.unbounded_within_range:
        print(f"buffer sizing: schedulable at every depth up to {args.max_depth}")
    else:
        print(f"buffer sizing: deepest schedulable per-VC buffer = "
              f"{depth.max_depth} flits")
    margin = length_scaling_margin(flowset)
    print(f"payload margin: packets can scale by x{margin:.2f} before the "
          "IBN verdict flips")
    return 0


def cmd_allocate(args) -> int:
    """``allocate``: minimum-cost schedulable buffer allocation of a file.

    Exit code 1 when no allocation in the depth range (and budget) keeps
    the set schedulable.  ``--json`` prints the same document ``POST
    /allocate`` and the ``allocation`` campaign kind produce.
    """
    from repro.core.allocate import allocation_summary

    flowset = _load(args.flowset, None)
    cost_model = json.loads(args.cost_model) if args.cost_model else None
    try:
        summary = allocation_summary(
            flowset,
            analysis_name=args.analysis,
            lo=args.lo,
            hi=args.hi,
            cost_model=cost_model,
            budget=args.budget,
            max_evaluations=args.max_evaluations,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if summary["allocation"]["feasible"] else 1
    allocation = summary["allocation"]
    search = summary["search"]
    model = summary["spec"]["cost_model"]
    print(
        f"allocation under {args.analysis} "
        f"(depths {args.lo}..{args.hi}, cost model {model['kind']}):"
    )
    if not allocation["feasible"]:
        print("  infeasible: no depth assignment keeps the set schedulable")
        return 1
    for router, depth in allocation["buf_map"].items():
        marker = "*" if int(router) in search["relevant_routers"] else " "
        print(f"  router {router:>3} {marker} depth {depth}")
    print(
        f"cost {allocation['cost']}  total depth {allocation['total_depth']}"
        f"  ({'certified optimum' if allocation['certified'] else 'best found'}"
        f", {search['evaluations']} evaluations in "
        f"{search['frontiers']} batched frontiers; * = contended router)"
    )
    return 0


def cmd_campaign(args) -> int:
    """``campaign``: run a declarative spec file on the campaign engine."""
    from repro.campaigns.engine import expand_jobs, run_campaign
    from repro.campaigns.export import CsvExporter, JsonExporter, TextExporter
    from repro.campaigns.progress import stderr_progress
    from repro.campaigns.scheduler import FaultPolicy
    from repro.campaigns.spec import load_spec

    spec = load_spec(args.spec)
    if args.dry_run:
        jobs = expand_jobs(spec)
        print(f"campaign {spec.name!r} (kind={spec.kind}): {len(jobs)} jobs")
        for job in jobs:
            print(f"  {job.job_id[:12]}  {job.label or job.kind}")
        return 0
    run = run_campaign(
        spec,
        store=args.run_dir,
        workers=args.workers,
        progress=stderr_progress,
        faults=FaultPolicy(
            retries=args.retries, job_timeout_s=args.job_timeout
        ),
    )
    TextExporter().export(run)
    if args.csv_dir is not None:
        CsvExporter(args.csv_dir).export(run)
    if args.json_dir is not None:
        JsonExporter(args.json_dir).export(run)
    stats = run.stats
    line = (
        f"[{stats.jobs_total} jobs: {stats.jobs_run} run, "
        f"{stats.jobs_skipped} resumed from store"
    )
    if stats.jobs_quarantined:
        line += f", {stats.jobs_quarantined} quarantined"
    if stats.retries:
        line += f", {stats.retries} retries"
    line += f", {stats.elapsed_s:.1f}s]"
    print(line, file=sys.stderr)
    # A partial campaign produced an artefact with holes: succeed-ish
    # output, non-zero exit so scripts notice.
    return 1 if run.partial else 0


def cmd_backend(args) -> int:
    """``backend``: compiled-backend availability, build status, probes."""
    from repro.core import backend as backend_mod

    rows = backend_mod.backend_infos()
    for info in rows:
        marker = "*" if info["active"] else " "
        kernels = ", ".join(info["kernels"]) or "none (built-in paths)"
        state = "available" if info["available"] else "unavailable"
        print(f"{marker} {info['name']:<8} {state:<12} kernels: {kernels}")
        print(f"           {info['detail']}")
    if args.probe:
        print()
        for line in _backend_probe(backend_mod):
            print(line)
    return 0


def _backend_probe(backend_mod) -> list[str]:
    """One-shot micro-probe: a tiny batch and a tiny simulation per
    available backend, CPU-timed (relative numbers only — the workloads
    are sized to finish fast, not to saturate the kernels)."""
    import time

    from repro.core.analyses.ibn import IBNAnalysis
    from repro.core.batch import Scenario, analyze_batch
    from repro.noc.platform import NoCPlatform
    from repro.noc.topology import Mesh2D
    from repro.flows.flowset import FlowSet
    from repro.sim.simulator import WormholeSimulator
    from repro.sim.traffic import PeriodicReleases
    from repro.util.rng import spawn_rng
    from repro.workloads.synthetic import SyntheticConfig, synthetic_flows

    platform = NoCPlatform(Mesh2D(4, 4), buf=2)
    flowsets = []
    for index in range(8):
        rng = spawn_rng(20180319, "backend-probe", index)
        flows = synthetic_flows(
            SyntheticConfig(num_flows=48),
            platform.topology.num_nodes,
            rng,
        )
        flowsets.append(FlowSet(platform, flows))
    sim_flowset = flowsets[0]
    horizon = max(f.period for f in sim_flowset.flows) // 8
    lines = [f"{'backend':<8} {'batch(8x48)':>12} {'sim(4x4)':>12}"]
    for name in backend_mod.available_backend_names():
        with backend_mod.use_backend(name):
            analyze_batch([Scenario(f, IBNAnalysis()) for f in flowsets])
            t0 = time.process_time()
            analyze_batch([Scenario(f, IBNAnalysis()) for f in flowsets])
            batch_s = time.process_time() - t0
            WormholeSimulator(sim_flowset, PeriodicReleases()).run(horizon)
            t0 = time.process_time()
            WormholeSimulator(sim_flowset, PeriodicReleases()).run(horizon)
            sim_s = time.process_time() - t0
        lines.append(f"{name:<8} {batch_s * 1e3:>10.1f}ms {sim_s * 1e3:>10.1f}ms")
    return lines


def cmd_serve(args) -> int:
    """``serve``: run the HTTP analysis service until interrupted."""
    from repro.serve.server import run_server
    from repro.serve.service import ServeConfig

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_size=args.cache_size,
            run_dir=args.run_dir,
            batch_window_s=args.batch_window,
            request_timeout_s=args.request_timeout,
            rebuild_cooldown_s=args.rebuild_cooldown,
            drain_timeout_s=args.drain_timeout,
            store_addrs=tuple(args.store),
            max_inflight=args.max_inflight,
            backend=args.backend,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return run_server(config)


def cmd_cluster(args) -> int:
    """``cluster``: run the supervised multi-process serving cluster."""
    from repro.serve.cluster import ClusterConfig, run_cluster

    try:
        config = ClusterConfig(
            frontends=args.frontends,
            host=args.host,
            port=args.port,
            store_dir=args.store_dir,
            store_shards=args.store_shards,
            store_group=args.store_group,
            store_ack_mode=args.store_ack_mode,
            store_fsync=args.store_fsync,
            workers=args.workers,
            cache_size=args.cache_size,
            max_inflight=args.max_inflight,
            request_timeout_s=args.request_timeout,
            health_interval_s=args.health_interval,
            backoff_cap_s=args.backoff_cap,
            listener=args.listener,
            drain_timeout_s=args.drain_timeout,
        )
    except ValueError as exc:
        print(f"cluster: {exc}", file=sys.stderr)
        return 2
    return run_cluster(config)


def cmd_stored(args) -> int:
    """``stored``: run one standalone store-daemon shard."""
    from repro.serve.stored import run_stored

    return run_stored(
        args.directory,
        host=args.host,
        port=args.port,
        replica_of=args.replica_of,
        ack_mode=args.ack_mode,
        fsync=args.fsync,
        max_connections=args.max_connections,
        idle_timeout_s=args.idle_timeout if args.idle_timeout > 0 else None,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Worst-case NoC latency analysis (DATE'18 IBN reproduction)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="compute backend for every command (numpy or cext; "
             "default cext); overrides REPRO_BACKEND, falls back to "
             "numpy when the compiled extension is unavailable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="bound a flow-set file")
    p_analyze.add_argument("flowset", help="JSON flow-set file (see repro.io)")
    p_analyze.add_argument(
        "--analysis", choices=[*_ANALYSES, "all"], default="ibn"
    )
    p_analyze.add_argument(
        "--buf", type=int, default=None,
        help="override the platform's per-VC buffer depth",
    )
    p_analyze.add_argument(
        "--json", action="store_true", help="also dump the result as JSON"
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_sizing = sub.add_parser(
        "sizing", help="buffer-depth and payload headroom of a flow-set file"
    )
    p_sizing.add_argument("flowset")
    p_sizing.add_argument("--buf", type=int, default=None)
    p_sizing.add_argument("--max-depth", type=int, default=1024)
    p_sizing.add_argument(
        "--json", action="store_true",
        help="print the machine-readable sizing summary instead of tables",
    )
    p_sizing.set_defaults(func=cmd_sizing)

    p_allocate = sub.add_parser(
        "allocate",
        help="minimum-cost schedulable buffer allocation of a flow-set file",
    )
    p_allocate.add_argument("flowset")
    p_allocate.add_argument(
        "--analysis", choices=sorted(_ANALYSES), default="ibn"
    )
    p_allocate.add_argument(
        "--lo", type=int, default=1, help="shallowest depth considered"
    )
    p_allocate.add_argument(
        "--hi", type=int, default=8, help="deepest depth considered"
    )
    p_allocate.add_argument(
        "--budget", type=int, default=None,
        help="cap on the total buffer depth across all routers",
    )
    p_allocate.add_argument(
        "--cost-model", default=None, metavar="JSON",
        help='cost model document, e.g. \'{"kind": "shallowness", '
             '"target": 8}\' (default) or \'{"kind": "depth"}\'',
    )
    p_allocate.add_argument(
        "--max-evaluations", type=int, default=None,
        help="evaluation cap; a capped run returns its best incumbent "
             "uncertified",
    )
    p_allocate.add_argument(
        "--json", action="store_true",
        help="print the machine-readable allocation document (identical "
             "to POST /allocate)",
    )
    p_allocate.set_defaults(func=cmd_allocate)

    p_exp = sub.add_parser("experiments", help="paper campaign runner")
    p_exp.add_argument("rest", nargs=argparse.REMAINDER)
    p_exp.set_defaults(func=None)

    p_campaign = sub.add_parser(
        "campaign", help="run a declarative campaign spec (JSON file)"
    )
    p_campaign.add_argument("spec", help="campaign spec JSON (see repro.campaigns)")
    p_campaign.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    p_campaign.add_argument(
        "--run-dir", default=None,
        help="result-store directory; reuse it to resume a killed run",
    )
    p_campaign.add_argument(
        "--csv-dir", default=None, help="write <name>.csv here"
    )
    p_campaign.add_argument(
        "--json-dir", default=None, help="write <name>.json here"
    )
    p_campaign.add_argument(
        "--dry-run", action="store_true",
        help="print the expanded job list instead of running",
    )
    p_campaign.add_argument(
        "--retries", type=int, default=2,
        help="re-executions per failing job before it is quarantined "
             "(default 2: each job runs at most 3 times)",
    )
    p_campaign.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per job block; hung blocks are killed, "
             "retried, and eventually quarantined (default: unlimited)",
    )
    p_campaign.set_defaults(func=cmd_campaign)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP analysis service (see repro.serve)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (0.0.0.0 accepts remote clients)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8177,
        help="TCP port (0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=0,
        help="job worker processes; 0 runs jobs in-process on threads",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=256,
        help="entries kept in the in-memory LRU result cache",
    )
    p_serve.add_argument(
        "--run-dir", default=None,
        help="persist query results and campaign stores here "
             "(a restarted server answers warm)",
    )
    p_serve.add_argument(
        "--batch-window", type=float, default=0.0, metavar="SECONDS",
        help="how long the analyze micro-batcher waits before flushing "
             "queued cache misses as one batched kernel call "
             "(0 = next event-loop tick)",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request compute deadline: requests still running after "
             "this long get 504 (default: unlimited)",
    )
    p_serve.add_argument(
        "--rebuild-cooldown", type=float, default=0.5, metavar="SECONDS",
        help="backpressure window after a worker-pool rebuild during "
             "which cache-miss requests get 503 + Retry-After",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="on SIGTERM, how long to let in-flight requests finish "
             "before forcing connections closed",
    )
    p_serve.add_argument(
        "--store", action="append", default=[], metavar="HOST:PORT",
        help="store-daemon shard address (repeatable); switches the "
             "query tier to the shared cluster store",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=0,
        help="admission bound on concurrent compute requests; beyond it "
             "requests are shed with 429 + Retry-After (0 = unbounded)",
    )
    p_serve.add_argument(
        "--backend", default=None, metavar="NAME",
        help="compute backend for the service and its workers "
             "(numpy or cext; default: REPRO_BACKEND, else cext "
             "falling back to numpy)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_backend = sub.add_parser(
        "backend",
        help="list compute backends, availability and build status",
    )
    p_backend.add_argument(
        "--probe", action="store_true",
        help="also time a tiny batch analysis and simulation per "
             "available backend",
    )
    p_backend.set_defaults(func=cmd_backend)

    p_cluster = sub.add_parser(
        "cluster",
        help="run the supervised multi-process serving cluster "
             "(see repro.serve.cluster)",
    )
    p_cluster.add_argument(
        "--frontends", type=int, default=2,
        help="front-end server processes sharing the listener",
    )
    p_cluster.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    p_cluster.add_argument(
        "--port", type=int, default=8177,
        help="shared TCP port (0 picks an ephemeral port)",
    )
    p_cluster.add_argument(
        "--store-dir", default="cluster-state",
        help="root directory of the shared result tier "
             "(shard i persists under <dir>/shard-<i>)",
    )
    p_cluster.add_argument(
        "--store-shards", type=int, default=1,
        help="store-daemon processes the job hashes shard over",
    )
    p_cluster.add_argument(
        "--store-group", action="store_true",
        help="run each shard as a replicated primary+backup group with "
             "supervisor-driven failover",
    )
    p_cluster.add_argument(
        "--store-ack-mode", choices=["local", "replicated"],
        default="replicated",
        help="with --store-group: ack puts after the backup confirmed "
             "(replicated) or after the local append (local)",
    )
    p_cluster.add_argument(
        "--store-fsync", choices=["none", "batch", "always"],
        default="none",
        help="fsync policy of the shard stores",
    )
    p_cluster.add_argument(
        "--workers", type=int, default=0,
        help="job worker processes per front-end "
             "(0 runs jobs in-process on threads)",
    )
    p_cluster.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU entries per front-end, in front of the shard store",
    )
    p_cluster.add_argument(
        "--max-inflight", type=int, default=64,
        help="per-front-end admission bound; excess compute requests "
             "are shed with 429 + Retry-After",
    )
    p_cluster.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request compute deadline (504 past it)",
    )
    p_cluster.add_argument(
        "--health-interval", type=float, default=0.25, metavar="SECONDS",
        help="seconds between supervisor health pings",
    )
    p_cluster.add_argument(
        "--backoff-cap", type=float, default=5.0, metavar="SECONDS",
        help="upper bound on the capped-exponential restart delay",
    )
    p_cluster.add_argument(
        "--listener", choices=["auto", "reuseport", "shared"],
        default="auto",
        help="listener strategy: SO_REUSEPORT per front-end, one "
             "inherited shared listener, or auto-detect",
    )
    p_cluster.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="graceful-drain budget per front-end on stop",
    )
    p_cluster.set_defaults(func=cmd_cluster)

    p_stored = sub.add_parser(
        "stored",
        help="run one standalone store-daemon shard "
             "(see repro.serve.stored)",
    )
    p_stored.add_argument(
        "directory", help="JSONL result-store directory this shard owns",
    )
    p_stored.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    p_stored.add_argument(
        "--port", type=int, default=8178,
        help="TCP port of the length-prefixed store protocol",
    )
    p_stored.add_argument(
        "--replica-of", default=None, metavar="HOST:PORT",
        help="run as a backup tailing this primary's log (reads only "
             "until promoted)",
    )
    p_stored.add_argument(
        "--ack-mode", choices=["local", "replicated"], default="local",
        help="when a replica is attached, delay put acks until it "
             "confirmed the record (replicated) or ack locally (local)",
    )
    p_stored.add_argument(
        "--fsync", choices=["none", "batch", "always"], default="none",
        help="fsync policy on the store file",
    )
    p_stored.add_argument(
        "--max-connections", type=int, default=256,
        help="connection cap; excess clients get a polite error frame",
    )
    p_stored.add_argument(
        "--idle-timeout", type=float, default=60.0, metavar="SECONDS",
        help="drop connections idle this long (0 disables)",
    )
    p_stored.set_defaults(func=cmd_stored)

    args = parser.parse_args(argv)
    if args.backend is not None:
        from repro.core import backend as backend_mod

        try:
            backend_mod.set_backend(args.backend)
        except ValueError as exc:
            print(f"--backend: {exc}", file=sys.stderr)
            return 2
    if args.command == "experiments":
        from repro.experiments.runner import main as runner_main

        return runner_main(args.rest)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

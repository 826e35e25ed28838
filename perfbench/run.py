"""The repository benchmark: paper campaigns and the analysis service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4 --seed 20180319 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md``):

* ``fig4`` — the Figure 4(a) and 4(b) schedulability campaigns at
  ``REPRO_SCALE=default``, serial, into a fresh run dir, exported as CSV
  and JSON;
* ``validate`` — the bound-vs-simulation validation campaign at default
  scale;
* ``serve-zipf`` — ``POST /analyze`` with ``analysis=all`` against a
  ``repro serve --workers 0 --run-dir`` process, as a closed loop on one
  keep-alive connection with a Zipf repeat stream.

Every pass runs in a fresh process, timed from launch to its first timed
operation (``setup_s``).  A run makes a fixed number of passes, set by
``--seconds`` over the workload's nominal pass time, each on its own
input seed (the first is ``--seed``), and the result line reports
medians.  A fixed host probe runs before the first launch and after
every launch; the times named in ``HOST_SCALED`` are restated at the
reference host speed by the run's median probe
(``measure.host_scaled``).
``--trace 1`` alternates untraced and traced passes on
``--seed`` instead and reports the per-layer metrics.  Output checks run
in every run; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH_DIR))
#: The serve workload drives the server with the program's own client.
sys.path.insert(1, str(ROOT / "src"))

import measure  # noqa: E402
import stream  # noqa: E402

WORKLOADS = ("fig4", "validate", "serve-zipf")
DEFAULT_SEED = 20180319
#: Set-ups measured per run (passes plus set-up-only launches).
SETUP_SAMPLES = 5
#: Nominal seconds of one pass on a 2-vCPU host.  A run makes
#: ``--seconds // PASS_S`` passes (at least one, two when tracing), so
#: the inputs a run covers never depend on the speed of the code.
PASS_S = {"fig4": 8.5, "validate": 8.5, "serve-zipf": 12.5}
#: Longest wait for any single step of a child process.
STEP_TIMEOUT_S = 150.0
#: Longest wait for a child to exit before it is killed.
EXIT_TIMEOUT_S = 30.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end times restated at the reference host speed, per workload.
#: The serve stream's time goes to process hops and loopback on one CPU,
#: which the probe follows only loosely; its measured time was the
#: steadier in most sets of runs, so it is reported as measured.
HOST_SCALED = {
    "fig4": ("setup_s", "wall_s"),
    "validate": ("setup_s", "wall_s"),
    "serve-zipf": ("setup_s",),
}

#: Span names of the campaign layers (``.self_s`` and ``.calls`` each).
CAMPAIGN_SPANS = (
    "workloads.synthetic_flows",
    "flows.rate_monotonic",
    "core.interference.graph_build",
    "core.interference.geometry_matrices",
    "core.batch.analyze_batch",
    "core.backend.kernel",
    "core.engine.analyze",
    "campaigns.store.put",
    "campaigns.scheduler",
    "campaigns.export",
    "sim.simulator.run",
    "sim.worstcase",
)
#: Span names of the serve layers (``.self_ms``, ``.calls``, ``.p50_ms``).
SERVE_SPANS = (
    "serve.http.read_request",
    "serve.jobs.analyze_params",
    "serve.service.job_hash",
    "serve.cache.get",
    "serve.cache.store_get",
    "serve.jobs.run_analyze",
    "serve.cache.store_put",
    "serve.http.render_response",
)

PER_LAYER = (
    *[(f"{name}.{part}", unit) for name in CAMPAIGN_SPANS
      for part, unit in (("self_s", "s"), ("calls", "count"))],
    ("core.batch.analyze_batch.scenarios", "count"),
    ("core.batch.batched_share", "ratio"),
    ("campaigns.jobs_total", "count"),
    ("campaigns.resume.wall_s", "s"),
    ("campaigns.resume.jobs_skipped", "count"),
    ("sim.cycles", "count"),
    ("sim.cycles_per_s", "1/s"),
    *[(f"{name}.{part}", unit) for name in SERVE_SPANS
      for part, unit in (("self_ms", "ms"), ("calls", "count"),
                         ("p50_ms", "ms"))],
    ("serve.cache.lru_hits", "count"),
    ("serve.cache.store_hits", "count"),
    ("serve.executed", "count"),
    ("serve.server_share", "ratio"),
    ("miss_p50_ms", "ms"),
    ("miss_p99_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_samples", "count"),
    ("hit_samples", "count"),
    ("failed_frac", "ratio"),
    ("untraced.wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("other.self_s", "s"),
    ("calibration_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run (not an output-check failure)."""


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """Environment of every child: the checkout's sources, the default
    backend selection, and a kernel cache inside the checkout."""
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    return env


class Child:
    """One started process, timed from its launch.

    ``interactive`` children speak the line protocol of
    ``campaign_child.py`` over stdin/stdout.
    """

    live: set = set()

    def __init__(self, argv: list[str], log: Path, interactive: bool) -> None:
        log.parent.mkdir(parents=True, exist_ok=True)
        self.log_path = log
        self._log = log.open("wb")
        pipe = subprocess.PIPE if interactive else subprocess.DEVNULL
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=pipe, stdout=pipe,
            stderr=self._log, bufsize=0,
        )
        self._buffer = b""
        Child.live.add(self)

    def readline(self) -> str:
        """Next stdout line; raises on exit or timeout."""
        deadline = time.monotonic() + STEP_TIMEOUT_S
        out = self.proc.stdout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{self.describe()} timed out")
            ready, _, _ = select.select([out], [], [], remaining)
            if ready:
                chunk = os.read(out.fileno(), 1 << 16)
                if not chunk:
                    raise BenchError(f"{self.describe()} exited early")
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    def send(self, text: str) -> None:
        self.proc.stdin.write(text.encode("utf-8"))
        self.proc.stdin.flush()

    def reap(self) -> None:
        """Wait for exit, killing the process after ``EXIT_TIMEOUT_S``."""
        try:
            self.proc.wait(EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
        self._log.close()
        Child.live.discard(self)

    def describe(self) -> str:
        tail = self.log_path.read_text(errors="replace")[-2000:]
        return f"child {self.proc.args[1:3]} (log tail: {tail!r})"

    @classmethod
    def stop_all(cls) -> None:
        for child in list(cls.live):
            if child.proc.returncode is None:
                child.proc.kill()
            child.reap()


#: Run dirs of this process (concurrent runs never share one).
RUNS = WORK / "runs" / str(os.getpid())


def fresh_dir(name: str) -> Path:
    path = RUNS / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# campaign workloads


def campaign_child(workload: str, seed: int, run_dir: Path,
                   trace: bool = False) -> Child:
    argv = [
        sys.executable, str(BENCH_DIR / "campaign_child.py"),
        "--workload", workload, "--seed", str(seed), "--run-dir", str(run_dir),
    ]
    if trace:
        argv.append("--trace")
    return Child(argv, WORK / "logs" / f"{workload}.log", interactive=True)


def campaign_setup(workload: str, seed: int) -> dict:
    """Seconds from launch to ready, without running the workload."""
    child = campaign_child(workload, seed, fresh_dir("setup"))
    child.readline()
    setup_s = time.perf_counter() - child.launched
    child.send("quit\n")
    child.reap()
    return {"setup_s": setup_s}


def campaign_pass(workload: str, seed: int, trace: bool = False) -> dict:
    """One fresh-process pass; the child's report plus set-up, RSS and
    the exported outputs as read back from disk."""
    run_dir = fresh_dir(workload)
    child = campaign_child(workload, seed, run_dir, trace)
    json.loads(child.readline())
    setup_s = time.perf_counter() - child.launched
    child.send("go\n")
    report = json.loads(child.readline())
    child.reap()
    report["setup_s"] = setup_s
    report["seed"] = seed
    exports = run_dir / "exports"
    report["outputs"] = {
        name: {
            "result": json.loads(
                (exports / f"{name}.json").read_text(encoding="utf-8")
            )["result"],
            "csv": (exports / f"{name}.csv").read_text(encoding="utf-8"),
        }
        for name in report["exports"]
    }
    return report


def check_fig4(outputs: dict) -> list[str]:
    """Curves ordered pointwise: SB >= IBN2 >= IBN100 >= XLWX."""
    failures = []
    chain = ("SB", "IBN2", "IBN100", "XLWX")
    for name, output in outputs.items():
        result = output["result"]
        series = result["series"]
        for index, x in enumerate(result["x_values"]):
            values = [series[label][index] for label in chain]
            if values != sorted(values, reverse=True):
                failures.append(f"{name} n={x}: curves out of order {values}")
    return failures


def check_validate(outputs: dict) -> list[str]:
    """No observation above a safe bound; at least one MPB row."""
    rows = [row for output in outputs.values()
            for row in output["result"]["rows"]]
    failures = [
        f"{row['workload']} buf={row['buf']} {row['flow']}: observed "
        f"{row['observed']} above {label} bound {row['bounds'][label]}"
        for row in rows for label in ("IBN", "XLWX")
        if row["bounds"][label] is not None
        and row["observed"] > row["bounds"][label]
    ]
    mpb = [row for row in rows if row["bounds"]["SB"] is not None
           and row["observed"] > row["bounds"]["SB"]]
    if not mpb:
        failures.append("no row shows multi-point progressive blocking")
    return failures


OUTPUT_CHECKS = {"fig4": check_fig4, "validate": check_validate}


# ---------------------------------------------------------------------------
# serve-zipf


class Server:
    """A ``repro serve --workers 0`` process on an ephemeral port."""

    _count = 0

    def __init__(self, run_dir: Path, spans_out: Path | None = None) -> None:
        serve_args = ["serve", "--port", "0", "--workers", "0",
                      "--run-dir", str(run_dir)]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                    str(spans_out), *serve_args]
        Server._count += 1
        self.child = Child(
            argv, WORK / "logs" / f"server-{Server._count}.log",
            interactive=False,
        )
        self.port = self._wait_port()
        self._wait_healthy()
        self.setup_s = time.perf_counter() - self.child.launched

    def _wait_port(self) -> int:
        deadline = time.monotonic() + STEP_TIMEOUT_S
        pattern = re.compile(r"listening on http://[^\s:]+:(\d+)")
        while time.monotonic() < deadline:
            found = pattern.search(self.child.log_path.read_text(errors="replace"))
            if found:
                return int(found.group(1))
            if self.child.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError(f"server never listened: {self.child.describe()}")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + STEP_TIMEOUT_S
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise BenchError("server never answered /healthz") from None
                time.sleep(0.002)
            finally:
                conn.close()

    def stop(self) -> float:
        """Graceful stop (SIGTERM); peak RSS of the server in MB."""
        peak = measure.peak_rss_mb(self.child.proc.pid)
        self.child.proc.send_signal(signal.SIGTERM)
        self.child.reap()
        return peak


def serve_stream(seed: int, spans_out: Path | None = None) -> dict:
    """One closed-loop request stream against a fresh server and store."""
    from repro.serve.client import ServeClient, ServeError

    docs, order = stream.request_stream(seed)
    payloads = [{"flowset": doc, "analysis": "all"} for doc in docs]
    server = Server(fresh_dir("serve"), spans_out)
    first: list[str | None] = [None] * len(docs)
    miss_ms: list[float] = []
    hit_ms: list[float] = []
    errors: list[str] = []
    try:
        client = ServeClient("127.0.0.1", server.port, timeout=STEP_TIMEOUT_S)
        start = time.perf_counter()
        for index in order:
            sent = time.perf_counter()
            try:
                body = client.request("POST", "/analyze", payloads[index])
            except (ServeError, OSError, http.client.HTTPException,
                    ValueError) as exc:
                errors.append(f"request {len(miss_ms) + len(hit_ms)}: {exc}")
                continue
            elapsed_ms = (time.perf_counter() - sent) * 1e3
            source = body.pop("source", None)
            body.pop("cached", None)
            answer = json.dumps(body, sort_keys=True)
            if first[index] is None:
                miss_ms.append(elapsed_ms)
                first[index] = answer
                expected = "computed"
            else:
                hit_ms.append(elapsed_ms)
                expected = "cache"
                if answer != first[index]:
                    errors.append(f"doc {index}: hit differs from first answer")
                    continue
            if source != expected:
                errors.append(f"doc {index}: source {source}, not {expected}")
        wall_s = time.perf_counter() - start
        stats = client.stats()
        client.close()
    finally:
        peak_rss_mb = server.stop()
    return {
        "seed": seed,
        "setup_s": server.setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "requests": len(order),
        "distinct": len(docs),
        "errors": errors,
        "miss_ms": miss_ms,
        "hit_ms": hit_ms,
        "rtt_s": (sum(miss_ms) + sum(hit_ms)) / 1e3,
        "backend": stats["backend"],
        "executed": stats["executed"],
        "lru_hits": stats["cache"]["hits"],
        "store_hits": stats["cache"]["store_hits"],
        "digest": measure.digest(first),
    }


def traced_stream(seed: int) -> dict:
    """A stream against a server whose layers are wrapped in spans."""
    spans_out = fresh_dir("spans") / "serve-spans.json"
    result = serve_stream(seed, spans_out)
    result["spans"] = json.loads(spans_out.read_text())
    return result


def serve_setup() -> dict:
    server = Server(fresh_dir("serve"))
    server.stop()
    return {"setup_s": server.setup_s}


# ---------------------------------------------------------------------------
# checks shared by every workload


class Checks:
    """Run-level output checks; each is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, failures: list[str]) -> None:
        """Record one check; any failure line fails it."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(failures)


def pinned_digest(workload: str, seed: int, found: str) -> list[str]:
    """Compare with the digest pinned for the default seed."""
    if seed != DEFAULT_SEED:
        return []
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())["digests"]
    expected = pinned.get(workload)
    if expected != found:
        return [f"{workload} output digest {found} != pinned {expected}"]
    return []


def program_version() -> str:
    """sha256 over the program's source tree (paths and contents)."""
    hasher = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if (not path.is_file() or "__pycache__" in path.parts
                or path.suffix in (".pyc", ".so")):
            continue
        hasher.update(path.relative_to(src).as_posix().encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]


class RepeatCounts:
    """Exact counts that must repeat across every run of one program
    version on one seed.

    Counts are kept per version of the program source, so a change that
    legitimately moves a count starts a fresh record; the pinned digests
    are the check across versions.  A run's counts are saved only when
    the whole run passed, so a bad run never becomes the reference.
    """

    def __init__(self) -> None:
        self.root = WORK / "counts" / program_version()
        self.known: dict[str, dict] = {}

    def check(self, workload: str, seed: int, counts: dict) -> list[str]:
        key = f"{workload}-{seed}"
        if key not in self.known:
            path = self.root / f"{key}.json"
            self.known[key] = (json.loads(path.read_text())
                               if path.exists() else {})
        known = self.known[key]
        changed = [
            f"count {name} changed on seed {seed}: {known[name]} -> {value}"
            for name, value in sorted(counts.items())
            if name in known and known[name] != value
        ]
        for name, value in counts.items():
            known.setdefault(name, value)
        return changed

    def save(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for key, known in self.known.items():
            (self.root / f"{key}.json").write_text(
                json.dumps(known, sort_keys=True))


# ---------------------------------------------------------------------------
# running a workload


def pass_seed(seed: int, index: int) -> int:
    """Input seed of a run's ``index``-th pass: the run's seed first, then
    seeds derived from it, so one run's median spans several inputs."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


def pass_plan(seed: int, count: int, trace: bool) -> list[tuple[int, bool]]:
    """``(input seed, traced)`` of each pass of a run.

    An untraced run makes ``count`` passes on its pass seeds.  A traced
    run alternates untraced and traced passes on ``seed``, ``count`` in
    all (at least one of each).
    """
    if trace:
        return [(seed, index % 2 == 1) for index in range(max(2, count))]
    return [(pass_seed(seed, index), False) for index in range(count)]


def probed(calls: list) -> tuple[list[dict], list[float]]:
    """Make each call in turn, timing the host probe before the first and
    after every one; returns the results and every probe time."""
    probes = [measure.calibration_probe()]
    results = []
    for call in calls:
        results.append(call())
        probes.append(measure.calibration_probe())
    return results, probes


def launches(plan: list, run_pass, run_setup, trace: bool) -> dict:
    """The run's passes, plus set-up-only launches until there are
    ``SETUP_SAMPLES`` set-up times (untraced runs only), all probed."""
    calls = [functools.partial(run_pass, s, traced) for s, traced in plan]
    if not trace:
        calls += [run_setup] * max(0, SETUP_SAMPLES - len(plan))
    results, probes = probed(calls)
    passes = results[:len(plan)]
    untraced = [r for r, (_, traced) in zip(passes, plan) if not traced]
    return {
        "calibration_s": statistics.median(probes),
        "setup_s": [r["setup_s"] for r in untraced + results[len(plan):]],
        "wall_s": [r["wall_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "untraced": untraced,
        "traced": [r for r, (_, traced) in zip(passes, plan) if traced],
    }


def run_campaign_workload(workload: str, seed: int, count: int,
                          trace: bool, checks: Checks,
                          repeats: RepeatCounts) -> dict:
    campaign_setup(workload, seed)  # untimed warm-up: bytecode, kernels
    data = launches(
        pass_plan(seed, count, trace),
        functools.partial(campaign_pass, workload),
        functools.partial(campaign_setup, workload, seed),
        trace,
    )
    all_passes = data["untraced"] + data["traced"]

    operations = failed_ops = 0
    for report in all_passes:
        operations += report["jobs_total"]
        failed_ops += report["quarantined"]
        checks.check(OUTPUT_CHECKS[workload](report["outputs"]))
        report["digest"] = measure.digest(report["outputs"])
        checks.check(pinned_digest(workload, report["seed"], report["digest"]))
        counts = {"digest": report["digest"],
                  "campaigns.jobs_total": report["jobs_total"],
                  "campaigns.jobs_run": report["jobs_run"]}
        if "trace" in report:
            counters = report["trace"]["counters"]
            counts["sim.cycles"] = counters.get("sim.cycles", 0)
            counts["core.batch.analyze_batch.scenarios"] = counters.get(
                "core.batch.analyze_batch.scenarios", 0)
        checks.check(repeats.check(workload, report["seed"], counts))

    data.update(
        backend=all_passes[0]["backend"],
        operations=operations,
        failed_ops=failed_ops,
        digest=data["untraced"][0]["digest"],
    )
    return data


def serve_pass(seed: int, traced: bool) -> dict:
    return traced_stream(seed) if traced else serve_stream(seed)


def run_serve_workload(seed: int, count: int, trace: bool, checks: Checks,
                       repeats: RepeatCounts) -> dict:
    serve_setup()  # untimed warm-up: bytecode, kernels
    data = launches(pass_plan(seed, count, trace), serve_pass, serve_setup,
                    trace)
    streams = data["untraced"]
    all_streams = streams + data["traced"]

    operations = failed_ops = 0
    for result in all_streams:
        operations += result["requests"]
        failed_ops += len(result["errors"])
        checks.failures.extend(result["errors"][:5])
        checks.check(pinned_digest("serve-zipf", result["seed"],
                                   result["digest"]))
        checks.check([] if result["executed"] == result["distinct"] else [
            f"serve.executed {result['executed']} != "
            f"{result['distinct']} distinct docs"
        ])
        checks.check(repeats.check("serve-zipf", result["seed"], {
            "digest": result["digest"],
            "serve.executed": result["executed"],
            "serve.cache.lru_hits": result["lru_hits"],
            "serve.cache.store_hits": result["store_hits"],
        }))
    data.update(
        backend=all_streams[0]["backend"],
        operations=operations,
        failed_ops=failed_ops,
        miss_ms=[x for s in streams for x in s["miss_ms"]],
        hit_ms=[x for s in streams for x in s["hit_ms"]],
        digest=streams[0]["digest"],
        streams=all_streams,
    )
    return data


# ---------------------------------------------------------------------------
# metrics


def latency_metrics(miss_ms: list, hit_ms: list) -> dict:
    """Round-trip percentiles (each needs 10 samples beyond it)."""
    return {
        "miss_p50_ms": measure.percentile(miss_ms, 50),
        "miss_p99_ms": measure.percentile(miss_ms, 99),
        "hit_p50_ms": measure.percentile(hit_ms, 50),
        "hit_p99_ms": measure.percentile(hit_ms, 99),
        "miss_samples": len(miss_ms),
        "hit_samples": len(hit_ms),
    }


def trace_report(data: dict, named_s: float) -> dict:
    """Overhead (median traced over median untraced wall) and the
    remainder of the first traced pass outside every named span."""
    traced = data["traced"]
    untraced_s = statistics.median(data["wall_s"])
    traced_s = statistics.median(p["wall_s"] for p in traced)
    return {
        "untraced.wall_s": untraced_s,
        "trace.wall_s": traced[0]["wall_s"],
        "trace.overhead": traced_s / untraced_s,
        "other.self_s": traced[0]["wall_s"] - named_s,
    }


def campaign_layers(data: dict) -> dict:
    """Per-layer metrics of the first traced campaign pass."""
    traced = data["traced"][0]
    snap = traced["trace"]
    values = {}
    for name in CAMPAIGN_SPANS:
        values[f"{name}.self_s"] = snap["self_s"].get(name, 0.0)
        values[f"{name}.calls"] = snap["calls"].get(name, 0)
    counters = snap["counters"]
    scenarios = counters.get("core.batch.analyze_batch.scenarios", 0)
    in_batch = counters.get("core.engine.analyze.in_batch", 0)
    outside = snap["calls"].get("core.engine.analyze", 0) - in_batch
    values["core.batch.analyze_batch.scenarios"] = scenarios
    total = scenarios + outside
    values["core.batch.batched_share"] = (
        (scenarios - in_batch) / total if total else 0.0
    )
    values["campaigns.jobs_total"] = traced["jobs_total"]
    values["campaigns.resume.wall_s"] = traced["resume_wall_s"]
    values["campaigns.resume.jobs_skipped"] = traced["resume_jobs_skipped"]
    cycles = counters.get("sim.cycles", 0)
    sim_s = snap["self_s"].get("sim.simulator.run", 0.0)
    values["sim.cycles"] = cycles
    values["sim.cycles_per_s"] = cycles / sim_s if sim_s else 0.0
    values.update(trace_report(data, sum(snap["self_s"].values())))
    return values


def serve_layers(data: dict) -> dict:
    """Per-layer metrics of the first traced serve stream."""
    traced = data["traced"][0]
    snap = traced["spans"]
    values = {}
    for name in SERVE_SPANS:
        samples = snap["samples"].get(name, [])
        values[f"{name}.self_ms"] = snap["self_s"].get(name, 0.0) * 1e3
        values[f"{name}.calls"] = snap["calls"].get(name, 0)
        values[f"{name}.p50_ms"] = (
            measure.percentile(samples, 50) * 1e3 if samples else 0.0
        )
    server_s = sum(snap["self_s"].values())
    values["serve.cache.lru_hits"] = traced["lru_hits"]
    values["serve.cache.store_hits"] = traced["store_hits"]
    values["serve.executed"] = traced["executed"]
    values["serve.server_share"] = server_s / traced["rtt_s"]
    values.update(latency_metrics(data["miss_ms"], data["hit_ms"]))
    values.update(trace_report(data, server_s))
    return values


def end_to_end(workload: str, data: dict, name: str) -> float:
    """The run's median of ``name``, restated at the reference host speed
    by the run's median probe where ``HOST_SCALED`` says so."""
    value = statistics.median(data[name])
    if name in HOST_SCALED[workload]:
        return measure.host_scaled(value, data["calibration_s"])
    return value


def report_lines(workload: str, seed: int, data: dict, checks: Checks,
                 attempted: int, failed: int) -> list[str]:
    """Human-readable lines printed above the JSON result."""
    lines = [
        f"workload {workload} seed {seed} backend {data['backend']}",
        f"calibration_s {data['calibration_s']:.4f} (median host probe; "
        f"{', '.join(HOST_SCALED[workload])} restated at the reference "
        f"probe time {measure.REFERENCE_PROBE_S} s)",
    ]
    for name, unit in END_TO_END:
        samples = data[name]
        restated = (f", restated from {statistics.median(samples):.4f}"
                    if name in HOST_SCALED[workload] else "")
        lines.append(
            f"{name} {end_to_end(workload, data, name):.4f} {unit} (median of "
            f"{len(samples)}{restated}: "
            f"{', '.join(f'{x:.4f}' for x in samples)} measured)"
        )
    lines.append(
        f"failed_frac {failed / attempted:.4f} ({failed} failed of "
        f"{attempted} attempted)"
    )
    if "miss_ms" in data and data["miss_ms"]:
        latencies = latency_metrics(data["miss_ms"], data["hit_ms"])
        for kind in ("miss", "hit"):
            lines.append(
                f"{kind}_p50_ms {latencies[f'{kind}_p50_ms']:.3f} ms, "
                f"{kind}_p99_ms {latencies[f'{kind}_p99_ms']:.3f} ms "
                f"({latencies[f'{kind}_samples']} samples)"
            )
        first = data["streams"][0]
        lines.append(
            f"cache split lru_hits {first['lru_hits']} store_hits "
            f"{first['store_hits']} executed {first['executed']}"
        )
    lines.append(f"output digest {data['digest']}")
    lines.extend(f"CHECK FAILED: {failure}" for failure in checks.failures)
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    repeats = RepeatCounts()
    count = pass_count(workload, seconds)
    if workload == "serve-zipf":
        data = run_serve_workload(seed, count, trace, checks, repeats)
    else:
        data = run_campaign_workload(workload, seed, count, trace, checks,
                                     repeats)
    attempted = data["operations"] + checks.attempted
    failed = data["failed_ops"] + checks.failed
    if failed == 0:
        repeats.save()
    for line in report_lines(workload, seed, data, checks, attempted, failed):
        print(line)
    if trace:
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0)
        layers.update(serve_layers(data) if workload == "serve-zipf"
                      else campaign_layers(data))
        layers["failed_frac"] = failed / attempted
        layers["calibration_s"] = data["calibration_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
        print(
            f"trace overhead {layers['trace.overhead']:.3f}x, "
            f"other.self_s {layers['other.self_s']:.4f} s"
        )
    else:
        metrics = {
            name: {"value": end_to_end(workload, data, name), "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Every process of the run shares one CPU.  On a virtualised host a
    # serve request's many thread and process hops otherwise turn host
    # load into wall-time noise, and a campaign's time depends on which
    # CPU the scheduler picked.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        Child.stop_all()
        shutil.rmtree(RUNS, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

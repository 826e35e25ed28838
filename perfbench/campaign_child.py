"""One pass of a campaign workload, in a fresh process.

Protocol with ``run.py``: after set-up (imports, backend resolution,
spec building, and span wrappers with ``--trace``) the child prints one
JSON line ``{"ready": ...}`` and waits for a line on stdin.  ``go``
runs the timed part: every campaign of the workload, serial
(``workers=1``), into a fresh run dir, then the CSV and JSON exports.
Anything else exits without running.  The result is one JSON line.

With ``--trace`` the child also re-runs every campaign on the filled run
dir (the resume path, which reads the store) and reports the spans.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402

#: Scale preset of both campaign workloads.
SCALE = "default"


def campaign_specs(workload: str, seed: int) -> list:
    """The workload's campaign specs, built from the public presets."""
    from repro.experiments import get_scale, schedulability_spec, validation_spec

    scale = get_scale(SCALE)
    if workload == "fig4":
        return [
            schedulability_spec(
                (4, 4), scale.fig4a_flow_counts, scale.fig4_sets_per_point,
                seed=seed, name="fig4a",
            ),
            schedulability_spec(
                (8, 8), scale.fig4b_flow_counts, scale.fig4_sets_per_point,
                seed=seed, name="fig4b",
            ),
        ]
    if workload == "validate":
        return [
            validation_spec(
                scale.validation_buffer_depths,
                seed=seed,
                didactic_offset_step=scale.didactic_offset_step,
                synthetic_sets=scale.validation_synthetic_sets,
            )
        ]
    raise ValueError(f"unknown campaign workload {workload!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.campaigns import CsvExporter, JsonExporter, run_campaign
    from repro.core.backend import get_backend

    specs = campaign_specs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans

        spans.preload()
        tracer = spans.Tracer()
        spans.install(tracer, spans.CAMPAIGN_LAYERS)
        backend = spans.install_backend_kernels(tracer)
    else:
        backend = get_backend().name
    print(json.dumps({"ready": True, "backend": backend}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    out_dir = args.run_dir / "exports"
    start = time.perf_counter()
    runs = []
    for spec in specs:
        run = run_campaign(spec, store=args.run_dir / spec.name, workers=1)
        CsvExporter(out_dir).export(run)
        JsonExporter(out_dir).export(run)
        runs.append(run)
    wall_s = time.perf_counter() - start

    report = {
        "wall_s": wall_s,
        "backend": backend,
        "jobs_total": sum(run.stats.jobs_total for run in runs),
        "jobs_run": sum(run.stats.jobs_run for run in runs),
        "quarantined": sum(run.stats.jobs_quarantined for run in runs),
        "exports": [spec.name for spec in specs],
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    if tracer is not None:
        report["trace"] = tracer.snapshot()
        start = time.perf_counter()
        resumed = [
            run_campaign(spec, store=args.run_dir / spec.name, workers=1)
            for spec in specs
        ]
        report["resume_wall_s"] = time.perf_counter() - start
        report["resume_jobs_skipped"] = sum(
            run.stats.jobs_skipped for run in resumed
        )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

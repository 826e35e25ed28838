"""The perf-trajectory gate (tools/bench_regress.py) and BENCH dedupe."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_regress  # noqa: E402  (path set up above)


def entry(label, revision, **metrics):
    return {"label": label, "revision": revision, "metrics": metrics}


class TestCompare:
    def test_ok_within_threshold(self):
        before = entry("a", "r1", fig4_ci_s=1.0, analyse_set_ms=20.0)
        after = entry("b", "r2", fig4_ci_s=1.1, analyse_set_ms=22.0)
        assert bench_regress.compare(before, after, 0.20) == []

    def test_lower_is_better_regression(self):
        before = entry("a", "r1", fig4_ci_s=1.0)
        after = entry("b", "r2", fig4_ci_s=1.5)
        problems = bench_regress.compare(before, after, 0.20)
        assert len(problems) == 1 and "fig4_ci_s" in problems[0]

    def test_higher_is_better_regression(self):
        before = entry("a", "r1", campaign={"jobs_per_s": 100.0})
        after = entry("b", "r2", campaign={"jobs_per_s": 70.0})
        problems = bench_regress.compare(before, after, 0.20)
        assert len(problems) == 1 and "jobs_per_s" in problems[0]

    def test_missing_metrics_skipped(self):
        before = entry("a", "r1", fig4_ci_s=1.0)
        after = entry("b", "r2", serve={"cold_rps": 100.0})
        assert bench_regress.compare(before, after, 0.20) == []

    def test_noise_floor_suppresses_tiny_wallclocks(self):
        before = entry("a", "r1", recurrence_ms={"SB": 0.2, "IBN": 0.3})
        after = entry("b", "r2", recurrence_ms={"SB": 0.5, "IBN": 0.6})
        assert bench_regress.compare(before, after, 0.20) == []

    def test_nested_batch_metrics_tracked(self):
        before = entry(
            "a", "r1", batch={"sweep": {"batched_scenarios_per_s": 80.0}}
        )
        after = entry(
            "b", "r2", batch={"sweep": {"batched_scenarios_per_s": 40.0}}
        )
        problems = bench_regress.compare(before, after, 0.20)
        assert len(problems) == 1 and "batched_scenarios_per_s" in problems[0]


class TestMachineDrift:
    """Self-calibration: uniform machine drift must not trip the gate,
    a single genuinely-slower hot path still must."""

    def _slow_box(self, factor, fig4=None):
        before = entry(
            "a", "r1",
            graph_build_ms={"400": 6.0}, analyse_set_ms=20.0,
            recurrence_ms={"SB": 3.0, "IBN": 6.0}, fig4_ci_s=0.6,
            campaign={"jobs_per_s": 100.0},
        )
        after = entry(
            "b", "r2",
            graph_build_ms={"400": 6.0 * factor},
            analyse_set_ms=20.0 * factor,
            recurrence_ms={"SB": 3.0 * factor, "IBN": 6.0 * factor},
            fig4_ci_s=(fig4 if fig4 is not None else 0.6 * factor),
            campaign={"jobs_per_s": 100.0 / factor},
        )
        return before, after

    def test_uniform_drift_normalised_out(self):
        before, after = self._slow_box(1.3)   # 30% slower box, all paths
        assert bench_regress.compare(before, after, 0.20) == []
        drift, samples = bench_regress.machine_drift(before, after)
        assert samples == 6
        assert abs(drift - 1.3) < 1e-9

    def test_single_path_regression_still_caught(self):
        # Box flat everywhere, but fig4 itself took a 50% hit.
        before, after = self._slow_box(1.0, fig4=0.9)
        problems = bench_regress.compare(before, after, 0.20)
        assert len(problems) == 1 and "fig4_ci_s" in problems[0]

    def test_regression_on_slow_box_reported_net_of_drift(self):
        # 30% drift everywhere plus a real 2x hit on fig4.
        before, after = self._slow_box(1.3, fig4=0.6 * 1.3 * 2.0)
        problems = bench_regress.compare(before, after, 0.20)
        assert len(problems) == 1 and "fig4_ci_s" in problems[0]
        assert "net of x1.30 drift" in problems[0]

    def test_faster_box_does_not_hide_regression(self):
        # Box 2x faster; fig4 unchanged raw = 2x slower net of drift.
        before, after = self._slow_box(0.5, fig4=0.6)
        problems = bench_regress.compare(before, after, 0.20)
        assert len(problems) == 1 and "fig4_ci_s" in problems[0]

    def test_too_few_samples_compares_raw(self):
        before = entry("a", "r1", fig4_ci_s=1.0, analyse_set_ms=20.0)
        after = entry("b", "r2", fig4_ci_s=1.5, analyse_set_ms=30.0)
        drift, samples = bench_regress.machine_drift(before, after)
        assert drift == 1.0 and samples == 2
        assert len(bench_regress.compare(before, after, 0.20)) == 2

    def test_speed_kind_classification(self):
        assert bench_regress.speed_kind("recurrence_ms.SB") == "duration"
        assert bench_regress.speed_kind("fig4_ci_s") == "duration"
        assert bench_regress.speed_kind("serve.cold_rps") == "rate"
        assert bench_regress.speed_kind(
            "batch.sweep.batched_scenarios_per_s"
        ) == "rate"
        assert bench_regress.speed_kind("sim.mesh8x8_speedup") is None
        assert bench_regress.speed_kind("chaos.scenarios_passed") is None


class TestMain:
    def _write(self, tmp_path, entries):
        target = tmp_path / "bench.json"
        target.write_text(json.dumps(entries), encoding="utf-8")
        return target

    def test_single_entry_passes(self, tmp_path, capsys):
        target = self._write(tmp_path, [entry("a", "r1", fig4_ci_s=1.0)])
        assert bench_regress.main(["--file", str(target)]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_missing_file_passes(self, tmp_path):
        assert bench_regress.main(
            ["--file", str(tmp_path / "absent.json")]
        ) == 0

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        target = self._write(tmp_path, [
            entry("a", "r1", fig4_ci_s=1.0),
            entry("b", "r2", fig4_ci_s=2.0),
        ])
        assert bench_regress.main(["--file", str(target)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        target = self._write(tmp_path, [
            entry("a", "r1", fig4_ci_s=1.0),
            entry("b", "r2", fig4_ci_s=1.5),
        ])
        assert bench_regress.main(
            ["--file", str(target), "--threshold", "0.6"]
        ) == 0

    def test_same_label_baseline_preferred(self, tmp_path):
        """An ad-hoc LABEL=... entry (other scale, loaded host) between
        two smoke runs must not become the smoke baseline."""
        target = self._write(tmp_path, [
            entry("smoke", "r1", fig4_ci_s=1.0),
            entry("paper", "r1", fig4_ci_s=60.0),   # paper-scale run
            entry("smoke", "r2", fig4_ci_s=1.05),
        ])
        assert bench_regress.main(["--file", str(target)]) == 0

    def test_creep_across_same_label_entries_fails(self, tmp_path, capsys):
        """Three entries each 15% slower on one metric: every step is
        under the threshold, the accumulated 52% is not."""
        target = self._write(tmp_path, [
            entry("smoke", f"r{i}", fig4_ci_s=1.15 ** i) for i in range(4)
        ])
        assert bench_regress.main(["--file", str(target)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION smoke@r0 -> smoke@r3" in out
        assert "ok (smoke@r2 -> smoke@r3" in out

    def test_compares_latest_two_only(self, tmp_path):
        target = self._write(tmp_path, [
            entry("a", "r1", fig4_ci_s=0.1),  # ancient and fast
            entry("b", "r2", fig4_ci_s=1.0),
            entry("c", "r3", fig4_ci_s=1.1),
        ])
        assert bench_regress.main(["--file", str(target)]) == 0


class TestRecordDedupe:
    def test_keeps_latest_per_label_revision(self):
        sys.path.insert(
            0,
            str(Path(__file__).resolve().parent.parent / "benchmarks"),
        )
        from record_engine_bench import dedupe

        history = [
            entry("seed", "r0", fig4_ci_s=2.0),
            entry("smoke", "r1", fig4_ci_s=1.0),
            entry("milestone", "r1", fig4_ci_s=0.9),
            entry("smoke", "r1", fig4_ci_s=0.8),
            entry("smoke", "r2", fig4_ci_s=0.7),
        ]
        deduped = dedupe(history)
        assert [(e["label"], e["revision"]) for e in deduped] == [
            ("seed", "r0"),
            ("milestone", "r1"),
            ("smoke", "r1"),
            ("smoke", "r2"),
        ]
        # the surviving ("smoke", "r1") entry is the newest one
        assert deduped[2]["metrics"]["fig4_ci_s"] == 0.8

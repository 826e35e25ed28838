"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stream  # noqa: E402


# -- percentile rule ---------------------------------------------------------


def test_p99_needs_ten_samples_beyond():
    samples = list(range(1000))
    assert measure.percentile(samples, 99) == 989
    with pytest.raises(ValueError, match="beyond"):
        measure.percentile(samples[:999], 99)


def test_p50_needs_twenty_samples():
    assert measure.percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        measure.percentile(range(19), 50)


def test_percentile_ignores_sample_order():
    samples = [5.0, 1.0, 3.0] * 10
    assert measure.percentile(samples, 50) == measure.percentile(
        sorted(samples), 50
    )


# -- self time ---------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_spans(monkeypatch):
    tracer = spans.Tracer(keep_samples=True)
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    # outer 0..10 holds inner 1..4 and 5..6: children cover 4 of 10.
    monkeypatch.setattr(spans, "perf_counter", FakeClock([0, 1, 4, 5, 6, 10]))
    outer()
    assert tracer.self_s == {"outer": 6, "inner": 4}
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.samples["inner"] == [3, 1]


def test_self_time_survives_exceptions(monkeypatch):
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    inner = tracer.wrap("inner", boom)

    def body():
        with pytest.raises(KeyError):
            inner()

    outer = tracer.wrap("outer", body)
    monkeypatch.setattr(spans, "perf_counter", FakeClock([0, 2, 5, 9]))
    outer()
    assert tracer.self_s == {"outer": 6, "inner": 3}


def test_async_spans_count_only_active_steps():
    tracer = spans.Tracer()

    async def waits():
        await asyncio.sleep(0.05)
        return 7

    wrapped = tracer.wrap("waits", waits)
    assert asyncio.run(wrapped()) == 7
    assert tracer.calls["waits"] == 1
    assert tracer.self_s["waits"] < 0.04


def test_counters_after_call():
    tracer = spans.Tracer()
    fn = tracer.wrap("f", lambda n: list(range(n)),
                     after=lambda t, args, result: t.count("items", len(result)))
    fn(3)
    fn(4)
    assert tracer.counters == {"items": 7}


def test_install_repoints_every_imported_name(monkeypatch):
    source = types.ModuleType("repro_perfbench_fake_a")
    exec("def f(x):\n    return x + 1\n", source.__dict__)
    user = types.ModuleType("repro_perfbench_fake_b")
    user.f = source.f
    user.table = {"k": source.f}
    monkeypatch.setitem(sys.modules, source.__name__, source)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    tracer = spans.Tracer()
    spans.install(tracer, [(source.__name__, "f", "fake.f", None)])
    assert source.f is user.f is user.table["k"]
    assert user.f(1) == 2
    assert tracer.calls == {"fake.f": 1}


def test_layer_tables_match_reported_spans():
    wrapped = {layer[2] for layer in spans.CAMPAIGN_LAYERS}
    assert wrapped | {"core.backend.kernel"} == set(run.CAMPAIGN_SPANS)
    assert {layer[2] for layer in spans.SERVE_LAYERS} == set(run.SERVE_SPANS)


def test_install_fails_loudly_on_missing_entry_point():
    with pytest.raises((LookupError, AttributeError)):
        spans.install(spans.Tracer(), [("json", "no_such", "x", None)])


# -- request stream ----------------------------------------------------------


def test_stream_is_deterministic_per_seed(monkeypatch):
    monkeypatch.setattr(stream, "DISTINCT_DOCS", 64)
    docs, order = stream.request_stream(7)
    again = stream.request_stream(7)
    other = stream.request_stream(8)
    assert (docs, order) == again
    assert measure.digest(docs, order) != measure.digest(*other)


def test_stream_shape(monkeypatch):
    monkeypatch.setattr(stream, "DISTINCT_DOCS", 256)
    docs, order = stream.request_stream(3)
    assert len(docs) == 256
    first = [order.index(k) for k in range(len(docs))]
    assert first == sorted(first)  # documents appear in index order
    assert 3 * len(docs) < len(order) < 5 * len(docs)


def test_flowset_doc_is_rate_monotonic():
    import random

    doc = stream.flowset_doc(random.Random(1), 12)
    flows = doc["flows"]
    assert [f["priority"] for f in flows] == list(range(1, 13))
    periods = [f["period"] for f in flows]
    assert periods == sorted(periods)
    assert all(f["src"] != f["dst"] for f in flows)


# -- digests -----------------------------------------------------------------


def test_digest_is_stable_and_order_free():
    assert measure.digest({"a": 1, "b": [1, 2]}) == measure.digest(
        {"b": [1, 2], "a": 1}
    )
    assert measure.digest({"a": 1}) == "b713f6d2a989e907"
    assert measure.digest({"a": 1}) != measure.digest({"a": 2})


def test_pinned_digests_cover_every_workload():
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())
    assert pinned["seed"] == run.DEFAULT_SEED
    assert set(pinned["digests"]) == set(run.WORKLOADS)


# -- output checks -----------------------------------------------------------


def test_fig4_check_flags_disordered_curves():
    good = {"fig4a": {"result": {"x_values": [40], "series": {
        "SB": [100.0], "IBN2": [90.0], "IBN100": [90.0], "XLWX": [50.0]}}}}
    assert run.check_fig4(good) == []
    bad = json.loads(json.dumps(good))
    bad["fig4a"]["result"]["series"]["XLWX"] = [95.0]
    assert run.check_fig4(bad)


def _row(observed, sb, ibn, xlwx):
    return {"workload": "w", "buf": 2, "flow": "t1", "observed": observed,
            "bounds": {"SB": sb, "IBN": ibn, "XLWX": xlwx}}


def test_validate_check():
    mpb = _row(120, 100, 130, 150)
    assert run.check_validate({"v": {"result": {"rows": [mpb]}}}) == []
    unsafe = _row(140, 100, 130, None)
    assert run.check_validate({"v": {"result": {"rows": [mpb, unsafe]}}})
    no_mpb = _row(90, 100, 130, 150)
    assert run.check_validate({"v": {"result": {"rows": [no_mpb]}}})


def test_repeat_counts_flag_changes(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "program_version", lambda: "v1")
    counts = run.RepeatCounts()
    assert counts.check("w", 1, {"a": 3}) == []
    assert counts.check("w", 1, {"a": 3, "b": 1}) == []
    assert counts.check("w", 1, {"a": 4})
    assert counts.check("w", 2, {"a": 4}) == []  # another seed
    counts.save()
    assert run.RepeatCounts().check("w", 1, {"a": 4})  # read back


def test_repeat_counts_are_per_program_version(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "program_version", lambda: "v1")
    counts = run.RepeatCounts()
    counts.check("w", 1, {"a": 3})
    counts.save()
    monkeypatch.setattr(run, "program_version", lambda: "v2")
    assert run.RepeatCounts().check("w", 1, {"a": 4}) == []


def test_unsaved_counts_are_not_a_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "program_version", lambda: "v1")
    run.RepeatCounts().check("w", 1, {"a": 3})  # a failed run: not saved
    assert run.RepeatCounts().check("w", 1, {"a": 4}) == []


def test_program_version_follows_sources(tmp_path, monkeypatch):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "m.py").write_text("x = 1\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    before = run.program_version()
    (tmp_path / "src" / "pkg" / "__pycache__" / "m.pyc").write_bytes(b"\0")
    assert run.program_version() == before
    (tmp_path / "src" / "pkg" / "m.py").write_text("x = 2\n")
    assert run.program_version() != before


# -- passes ------------------------------------------------------------------


def test_pass_inputs_do_not_depend_on_timing():
    assert run.pass_count("fig4", 35) == run.pass_count("fig4", 35.0)
    assert run.pass_count("serve-zipf", 1) == 1
    plan = run.pass_plan(5, 3, trace=False)
    assert plan == [(5, False), (run.pass_seed(5, 1), False),
                    (run.pass_seed(5, 2), False)]
    assert len({seed for seed, _ in plan}) == 3
    assert run.pass_plan(5, 1, trace=True) == [(5, False), (5, True)]


def test_every_launch_is_probed_on_both_sides(monkeypatch):
    calls = []
    monkeypatch.setattr(measure, "calibration_probe",
                        lambda: calls.append("probe") or 0.1)
    results, probes = run.probed([lambda: calls.append("a") or {},
                                  lambda: calls.append("b") or {}])
    assert calls == ["probe", "a", "probe", "b", "probe"]
    assert probes == [0.1, 0.1, 0.1] and results == [{}, {}]


def test_only_host_scaled_times_are_restated():
    ref = measure.REFERENCE_PROBE_S
    data = {"setup_s": [0.3, 0.2, 0.4], "wall_s": [9.0, 8.0],
            "peak_rss_mb": [50.0], "calibration_s": ref * 2}
    assert run.end_to_end("fig4", data, "setup_s") == pytest.approx(0.15)
    assert run.end_to_end("fig4", data, "wall_s") == pytest.approx(4.25)
    assert run.end_to_end("fig4", data, "peak_rss_mb") == 50.0
    assert run.end_to_end("serve-zipf", data, "setup_s") == pytest.approx(0.15)
    assert run.end_to_end("serve-zipf", data, "wall_s") == pytest.approx(8.5)
    assert set(run.HOST_SCALED) == set(run.WORKLOADS)


def test_host_scaling_keeps_the_program_share():
    ref = measure.REFERENCE_PROBE_S
    assert measure.host_scaled(6.0, ref) == pytest.approx(6.0)
    # A host a third slower slows the probe and the program alike.
    assert measure.host_scaled(8.0, ref * 4 / 3) == pytest.approx(6.0)


# -- the contract ------------------------------------------------------------


def test_benchmark_json_matches_metric_tables():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [
        name for name, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER
    )
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert bench["paths"] == [BENCH_DIR.name]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fig4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Torn-write recovery: stores survive a writer SIGKILLed mid-``put``.

The append-only JSONL :class:`ResultStore` (campaign resume, the
serving tier, the store daemon) promises a *committed-prefix*
invariant: whatever a killed writer managed to flush line-complete is
recovered on reopen, a torn final line is repaired away, and resume
skips exactly the committed jobs — no more, no fewer.  These tests
enforce that with a real subprocess writer killed by ``SIGKILL``
mid-stream, not a simulated truncation (that case is covered too).
"""

import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.campaigns.engine import expand_jobs, run_campaign
from repro.campaigns.faults import faults_spec
from repro.campaigns.spec import save_spec
from repro.campaigns.store import ResultStore

SRC = Path(__file__).resolve().parent.parent.parent / "src"

#: Writer subprocess: compute-and-put one campaign job at a time, slowly
#: enough for the parent to SIGKILL it mid-stream.
WRITER = """
import sys, time
sys.path.insert(0, {src!r})
from repro.campaigns import registry
from repro.campaigns.engine import expand_jobs
from repro.campaigns.spec import load_spec
from repro.campaigns.store import ResultStore

spec = load_spec({spec_path!r})
store = ResultStore({run_dir!r})
store.prepare(spec)
for job in expand_jobs(spec):
    store.put(job.job_id, registry.execute_job(job.kind, job.params))
    time.sleep(0.01)
"""

def kill_once_writing(proc, path, min_lines=3, timeout=30.0):
    """SIGKILL ``proc`` once ``path`` holds at least ``min_lines`` lines."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"writer exited before it could be killed:\n"
                f"{proc.stderr.read()}"
            )
        if path.exists() and path.read_bytes().count(b"\n") >= min_lines:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            return
        time.sleep(0.005)
    raise AssertionError("writer never produced enough lines to kill")


class TestResultStoreCrash:
    def test_sigkilled_writer_leaves_committed_prefix(self, tmp_path):
        entries = [{"key": f"k{i:03d}", "value": i} for i in range(50)]
        spec = faults_spec(entries, name="crashy")
        spec_path = save_spec(spec, tmp_path / "crashy.json")
        run_dir = tmp_path / "run"
        proc = subprocess.Popen(
            [sys.executable, "-c", WRITER.format(
                src=str(SRC), spec_path=str(spec_path), run_dir=str(run_dir)
            )],
            stderr=subprocess.PIPE, text=True,
        )
        kill_once_writing(proc, run_dir / "results.jsonl")
        proc.stderr.close()

        # Reopen: every recovered record is intact, and because the
        # writer committed in plan order the recovered set is exactly
        # the first N jobs of the campaign, each readable by hash.
        reopened = ResultStore(run_dir)
        recovered = reopened.load()
        assert 0 < len(recovered) < len(entries)
        jobs = expand_jobs(spec)
        committed, rest = jobs[:len(recovered)], jobs[len(recovered):]
        assert list(recovered) == [job.job_id for job in committed]
        for job in committed:
            assert reopened.get(job.job_id) == {
                "key": job.params["key"], "value": job.params["value"]
            }
        assert all(job.job_id not in reopened for job in rest)

        # Resume skips exactly the committed jobs and completes the
        # campaign with the same values an undisturbed run produces.
        resumed = run_campaign(spec, store=run_dir)
        assert resumed.stats.jobs_skipped == len(recovered)
        assert resumed.stats.jobs_run == len(entries) - len(recovered)
        assert resumed.result["values"] == {
            e["key"]: e["value"] for e in entries
        }

    def test_torn_tail_then_append_roundtrips(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put("j1", {"v": 1})
        store.put("j2", {"v": 2})
        path = tmp_path / "run" / "results.jsonl"
        # Chop the final record mid-JSON: a crash inside write().
        path.write_bytes(path.read_bytes()[:-7])
        repaired = ResultStore(tmp_path / "run")
        assert repaired.load() == {"j1": {"v": 1}}
        assert repaired.get("j2") is None  # torn away: recomputes
        # Appending over the torn tail must not merge with it.
        repaired.put("j3", {"v": 3})
        assert ResultStore(tmp_path / "run").load() == {
            "j1": {"v": 1}, "j3": {"v": 3}
        }

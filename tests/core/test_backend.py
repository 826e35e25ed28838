"""The backend seam: the backend table, selection, fallback, agreement.

The seam's safety story is that picking a backend can never change a
result — unknown or broken backends degrade to numpy with one warning
and byte-identical output.  These tests exercise the fixed backend
table and the one switch (``REPRO_BACKEND``, else the ``cext``
default), the broken-extension fallback path with a deliberately
failing loader and with an unwritable kernel cache, pool workers
resolving the coordinator's backend from the inherited environment,
the ``repro backend`` CLI diagnostic, and the tiny-round threshold
tunable.
"""

import os
import warnings

import pytest

from repro.campaigns import registry
from repro.campaigns.engine import run_campaign
from repro.campaigns.spec import CampaignSpec, Job
from repro.core import _cbuild
from repro.core import backend as backend_mod
from repro.core._cbuild import KernelBuildError
from repro.core.backend import (
    Backend,
    CextBackend,
    available_backend_names,
    backend_infos,
    get_backend,
    use_backend,
)
from repro.core.batch import Scenario, analyze_batch, min_batch_flows
from repro.core.engine import analyze
from repro.core.analyses.ibn import IBNAnalysis
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows


@pytest.fixture(autouse=True)
def _isolated_selection(monkeypatch):
    """Each test starts unselected with a pristine env."""
    monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
    backend_mod._reset_for_tests()
    yield
    backend_mod._reset_for_tests()


def _flowset(n=16, seed=0):
    platform = NoCPlatform(Mesh2D(4, 4), buf=2)
    flows = synthetic_flows(
        SyntheticConfig(num_flows=n),
        platform.topology.num_nodes,
        spawn_rng(seed, "backend-test", n),
    )
    return FlowSet(platform, flows)


def _broken_cext():
    def loader():
        raise OSError("simulated build failure")

    return CextBackend(loader=loader)


class _LoadedCext(Backend):
    """Stands in for a ``cext`` whose library loaded, on any host."""

    name = "cext"


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert list(backend_mod._BACKENDS) == ["numpy", "cext"]

    def test_numpy_always_available_with_no_kernels(self):
        assert "numpy" in available_backend_names()
        numpy_backend = backend_mod._BACKENDS["numpy"]
        assert numpy_backend.run_levels is None
        assert numpy_backend.sim_run is None

    def test_backend_infos_shape(self):
        rows = {row["name"]: row for row in backend_infos()}
        assert rows["numpy"]["available"] is True
        assert rows["numpy"]["kernels"] == []
        assert sum(row["active"] for row in rows.values()) == 1
        assert isinstance(rows["cext"]["detail"], str)


class TestSelection:
    def test_default_is_cext_when_it_loads(self):
        loads = backend_mod._BACKENDS["cext"].available()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # no compiler
            assert get_backend().name == ("cext" if loads else "numpy")

    def test_explicit_numpy_is_silent_when_cext_loads(self, monkeypatch):
        monkeypatch.setitem(backend_mod._BACKENDS, "cext", _LoadedCext())
        assert get_backend().name == "cext"
        monkeypatch.setenv(backend_mod.ENV_VAR, "numpy")
        backend_mod._reset_for_tests()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend().name == "numpy"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "numpy")
        backend_mod._reset_for_tests()
        assert get_backend().name == "numpy"

    def test_unknown_env_warns_once_and_uses_numpy(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "bogus")
        backend_mod._reset_for_tests()
        with pytest.warns(RuntimeWarning, match="unknown backend 'bogus'"):
            assert get_backend().name == "numpy"
        backend_mod._ACTIVE = None  # force re-resolution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend().name == "numpy"  # silent the second time

    def test_use_backend_restores_selection_and_env(self):
        before = get_backend()
        with use_backend("numpy") as active:
            assert active.name == "numpy"
            assert get_backend() is active
            assert os.environ[backend_mod.ENV_VAR] == "numpy"
        assert get_backend() is before
        assert backend_mod.ENV_VAR not in os.environ

    def test_use_backend_beats_env_and_exports(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "nonsense")
        with use_backend("numpy") as active:
            assert active.name == "numpy"
            assert get_backend() is active
            assert os.environ[backend_mod.ENV_VAR] == "numpy"
        assert os.environ[backend_mod.ENV_VAR] == "nonsense"

    def test_use_backend_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend("does-not-exist"):
                pass
        assert backend_mod.ENV_VAR not in os.environ


class TestBrokenExtensionFallback:
    """A ``cext`` that cannot load, swapped into the backend table."""

    def test_broken_loader_reports_unavailable(self):
        broken = _broken_cext()
        assert broken.available() is False
        assert "simulated build failure" in broken.detail()

    def test_selection_falls_back_to_numpy_with_one_warning(
        self, monkeypatch
    ):
        monkeypatch.setitem(backend_mod._BACKENDS, "cext", _broken_cext())
        monkeypatch.setenv(backend_mod.ENV_VAR, "cext")
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            assert get_backend().name == "numpy"
        backend_mod._ACTIVE = None  # force re-resolution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend().name == "numpy"  # warned once only

    def test_default_falls_back_to_numpy_with_one_warning(self, monkeypatch):
        monkeypatch.setitem(backend_mod._BACKENDS, "cext", _broken_cext())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert get_backend().name == "numpy"
            backend_mod._ACTIVE = None  # force re-resolution
            assert get_backend().name == "numpy"
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "simulated build failure" in str(caught[0].message)
        flowset = _flowset(20, seed=3)
        batch = analyze_batch([Scenario(flowset, IBNAnalysis())])[0]
        cold = analyze(flowset, IBNAnalysis())
        assert batch.flows == cold.flows
        assert batch.complete == cold.complete

    def test_unwritable_kernel_cache_degrades_to_numpy(
        self, tmp_path, monkeypatch
    ):
        # A private copy of the source has no prebuilt artifact beside
        # it, and a cache path under a regular file cannot be created.
        source = tmp_path / "pkg" / "_kernels.c"
        source.parent.mkdir()
        source.write_bytes(_cbuild.SOURCE.read_bytes())
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setattr(_cbuild, "SOURCE", source)
        monkeypatch.setattr(_cbuild, "compiler", lambda: "cc")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(blocker / "sub"))
        with pytest.raises(KernelBuildError, match="cannot write kernel"):
            _cbuild.load()
        monkeypatch.setitem(backend_mod._BACKENDS, "cext", CextBackend())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert get_backend().name == "numpy"
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "cannot write kernel cache" in str(caught[0].message)

    def test_fallback_results_identical_to_scalar(self, monkeypatch):
        monkeypatch.setitem(backend_mod._BACKENDS, "cext", _broken_cext())
        monkeypatch.setenv(backend_mod.ENV_VAR, "cext")
        flowset = _flowset(20, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert get_backend().name == "numpy"
        batch = analyze_batch([Scenario(flowset, IBNAnalysis())])[0]
        cold = analyze(flowset, IBNAnalysis())
        assert batch.flows == cold.flows
        assert batch.complete == cold.complete


# A job kind that reports the backend its worker process runs: the one
# it holds and the one a freshly started process would resolve from the
# environment it inherited.
@registry.job_executor("backend_probe")
def _probe_backend(params):
    fresh = backend_mod._resolve(os.environ.get(backend_mod.ENV_VAR))
    return {"active": get_backend().name, "fresh": fresh.name,
            "pid": os.getpid()}


registry.register_kind(
    registry.CampaignKind(
        name="backend_probe",
        plan=lambda spec: registry.Plan(jobs=[
            Job(kind="backend_probe", params={"index": i})
            for i in range(spec.params["jobs"])
        ]),
        aggregate=lambda spec, plan, results: [
            results[job.job_id] for job in plan.jobs
        ],
        render=lambda spec, result: repr(result),
    )
)


class TestWorkersAgree:
    """Pool workers run the coordinator's backend, picked by env alone."""

    @pytest.mark.parametrize("env", ["numpy", None], ids=["numpy", "default"])
    def test_pool_workers_match_coordinator(self, monkeypatch, env):
        if env is not None:
            monkeypatch.setenv(backend_mod.ENV_VAR, env)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # no compiler
            coordinator = get_backend().name
        spec = CampaignSpec(kind="backend_probe", name="probe",
                            params={"jobs": 6})
        run = run_campaign(spec, workers=2)
        assert not run.partial
        assert {os.getpid()}.isdisjoint(row["pid"] for row in run.result)
        for row in run.result:
            assert row["active"] == coordinator
            assert row["fresh"] == coordinator


class TestMinBatchFlows:
    def test_default(self):
        assert min_batch_flows() == 1024

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_MIN_FLOWS", "7")
        assert min_batch_flows(3) == 3
        assert min_batch_flows() == 7

    def test_bad_env_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_MIN_FLOWS", "not-a-number")
        import repro.core.batch as batch_mod

        monkeypatch.setattr(batch_mod, "_warned_min_flows", False)
        with pytest.warns(RuntimeWarning, match="REPRO_BATCH_MIN_FLOWS"):
            assert min_batch_flows() == 1024


class TestCli:
    def test_backend_subcommand_lists_backends(self, capsys):
        from repro.__main__ import main

        assert main(["backend"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        assert "cext" in out

    def test_env_picks_the_cli_backend(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv(backend_mod.ENV_VAR, "numpy")
        assert main(["backend"]) == 0
        assert "* numpy" in capsys.readouterr().out

    def test_global_backend_flag_rejects_unknown(self, capsys):
        """The ``--backend`` flags are gone: passing one is a usage
        error, never a silently ignored choice."""
        from repro.__main__ import main

        for argv in (["--backend", "bogus", "backend"],
                     ["--backend", "numpy", "backend"],
                     ["serve", "--backend", "numpy"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "error:" in capsys.readouterr().err

    def test_serve_config_validates_backend(self):
        """``ServeConfig`` has no backend field left to set."""
        from repro.serve import ServeConfig

        with pytest.raises(TypeError, match="backend"):
            ServeConfig(port=0, workers=0, backend="numpy")

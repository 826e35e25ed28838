"""The backend seam: registry, selection, fallback, and kernel parity.

The seam's safety story is that picking a backend can never change a
result — unknown or broken backends degrade to numpy with one warning
and byte-identical output.  These tests exercise the registry and
selection order (explicit call > ``REPRO_BACKEND`` > the ``cext``
default), the broken-extension fallback path with a deliberately
failing loader and with an unwritable kernel cache, the
``repro backend`` CLI diagnostic, the serve config validation, the
tiny-round threshold tunable, and a direct fuzz of the C ``solve_rows``
kernel against its numpy oracle.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _cbuild
from repro.core import backend as backend_mod
from repro.core._cbuild import KernelBuildError
from repro.core.backend import (
    Backend,
    CextBackend,
    NumpyBackend,
    apply_worker_backend,
    available_backend_names,
    backend_infos,
    get_backend,
    register_backend,
    registered_backend_names,
    set_backend,
    use_backend,
)
from repro.core.batch import (
    Scenario,
    _solve_rows,
    analyze_batch,
    min_batch_flows,
)
from repro.core.engine import analyze
from repro.core.analyses.ibn import IBNAnalysis
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows


@pytest.fixture(autouse=True)
def _isolated_selection(monkeypatch):
    """Each test starts unselected with a pristine registry and env."""
    saved_registry = dict(backend_mod._REGISTRY)
    monkeypatch.delenv(backend_mod.ENV_VAR, raising=False)
    backend_mod._reset_for_tests()
    yield
    backend_mod._REGISTRY.clear()
    backend_mod._REGISTRY.update(saved_registry)
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
        names = registered_backend_names()
        assert names[0] == "numpy"
        assert "cext" in names

    def test_numpy_always_available_with_no_kernels(self):
        assert "numpy" in available_backend_names()
        numpy_backend = backend_mod._REGISTRY["numpy"]
        assert numpy_backend.solve_rows is None
        assert numpy_backend.run_levels is None
        assert numpy_backend.sim_run is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(NumpyBackend())
        register_backend(NumpyBackend(), replace=True)  # tests may replace

    def test_backend_infos_shape(self):
        rows = {row["name"]: row for row in backend_infos()}
        assert rows["numpy"]["available"] is True
        assert rows["numpy"]["kernels"] == []
        assert sum(row["active"] for row in rows.values()) == 1
        assert isinstance(rows["cext"]["detail"], str)


class TestSelection:
    def test_default_is_cext_when_it_loads(self):
        loads = backend_mod._REGISTRY["cext"].available()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # no compiler
            assert get_backend().name == ("cext" if loads else "numpy")

    def test_explicit_numpy_is_silent_when_cext_loads(self, monkeypatch):
        register_backend(_LoadedCext(), replace=True)
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

    def test_set_backend_beats_env_and_exports(self, monkeypatch):
        import os

        monkeypatch.setenv(backend_mod.ENV_VAR, "nonsense")
        selected = set_backend("numpy")
        assert selected.name == "numpy"
        assert get_backend() is selected
        assert os.environ[backend_mod.ENV_VAR] == "numpy"

    def test_set_backend_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("does-not-exist")

    def test_unknown_env_warns_once_and_uses_numpy(self, monkeypatch):
        monkeypatch.setenv(backend_mod.ENV_VAR, "bogus")
        backend_mod._reset_for_tests()
        with pytest.warns(RuntimeWarning, match="unknown backend 'bogus'"):
            assert get_backend().name == "numpy"
        backend_mod._ACTIVE = None  # force re-resolution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend().name == "numpy"  # silent the second time

    def test_use_backend_restores_selection_and_env(self, monkeypatch):
        import os

        before = get_backend()
        with use_backend("numpy") as active:
            assert active.name == "numpy"
            assert os.environ[backend_mod.ENV_VAR] == "numpy"
        assert get_backend() is before
        assert backend_mod.ENV_VAR not in os.environ

    def test_apply_worker_backend(self):
        assert apply_worker_backend("numpy").name == "numpy"
        assert apply_worker_backend(None).name == "numpy"


class TestBrokenExtensionFallback:
    def test_broken_loader_reports_unavailable(self):
        broken = _broken_cext()
        assert broken.available() is False
        assert "simulated build failure" in broken.detail()

    def test_selection_falls_back_to_numpy_with_one_warning(self):
        register_backend(_broken_cext(), replace=True)
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            selected = set_backend("cext")
        assert selected.name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert set_backend("cext").name == "numpy"  # warned once only

    def test_default_falls_back_to_numpy_with_one_warning(self):
        register_backend(_broken_cext(), replace=True)
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
        register_backend(CextBackend(), replace=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert get_backend().name == "numpy"
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "cannot write kernel cache" in str(caught[0].message)

    def test_fallback_results_identical_to_scalar(self):
        register_backend(_broken_cext(), replace=True)
        flowset = _flowset(20, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            set_backend("cext")
        batch = analyze_batch([Scenario(flowset, IBNAnalysis())])[0]
        cold = analyze(flowset, IBNAnalysis())
        assert batch.flows == cold.flows
        assert batch.complete == cold.complete


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

    def test_global_backend_flag_rejects_unknown(self, capsys):
        from repro.__main__ import main

        assert main(["--backend", "bogus", "backend"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_serve_config_validates_backend(self):
        from repro.serve import ServeConfig

        with pytest.raises(ValueError, match="backend"):
            ServeConfig(port=0, workers=0, backend="bogus")


class TestCextKernelParity:
    """Direct fuzz of the compiled row solver against the numpy oracle."""

    @pytest.fixture(autouse=True)
    def _need_cext(self):
        if "cext" not in available_backend_names():
            pytest.skip("C extension unavailable")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_solve_rows_matches_numpy(self, seed, nrows):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 5, size=nrows).astype(np.int64)
        npairs = int(counts.sum())
        base = rng.integers(1, 50, size=nrows).astype(np.int64)
        give = base + rng.integers(0, 500, size=nrows).astype(np.int64)
        cold = base.copy()
        warm = rng.random(nrows) < 0.5
        start = np.where(
            warm, base + rng.integers(0, 100, size=nrows), base
        ).astype(np.int64)
        wj = rng.integers(0, 100, size=npairs).astype(np.int64)
        period = rng.integers(1, 200, size=npairs).astype(np.int64)
        cost = rng.integers(0, 40, size=npairs).astype(np.int64)

        args = (start, warm, base, give, cold, wj, period, cost, counts)
        expected = _solve_rows(*(a.copy() for a in args))
        cext = backend_mod._REGISTRY["cext"]
        got = cext.solve_rows(*(a.copy() for a in args))
        for exp, out in zip(expected, got):
            np.testing.assert_array_equal(np.asarray(exp), np.asarray(out))

# Developer entry points.  All targets assume the repository root as cwd.

PYTHON ?= python
export PYTHONPATH := src
export REPRO_SCALE ?= ci

.PHONY: test test-slow bench-smoke bench-record bench-figures campaign-smoke \
	docs-check bench-regress chaos-smoke cluster-smoke backend-smoke smoke

## Tier-1 test suite (the gate every PR must keep green).  Tests marked
## `slow` (paper-scale simulation sweeps) are deselected here.
test:
	$(PYTHON) -m pytest -x -q

## The heavy, paper-scale simulation tests only.
test-slow:
	$(PYTHON) -m pytest -q -m slow

## End-to-end campaign-engine smoke: expand (dry run), run a tiny spec
## into a fresh result store with every exporter, then re-run to prove
## resume replays all jobs from the store.
CAMPAIGN_SMOKE_DIR ?= .campaign-smoke
campaign-smoke:
	rm -rf $(CAMPAIGN_SMOKE_DIR)
	$(PYTHON) -m repro campaign examples/specs/campaign_smoke.json --dry-run
	$(PYTHON) -m repro campaign examples/specs/campaign_smoke.json \
		--run-dir $(CAMPAIGN_SMOKE_DIR)/run \
		--csv-dir $(CAMPAIGN_SMOKE_DIR)/csv \
		--json-dir $(CAMPAIGN_SMOKE_DIR)/json
	$(PYTHON) -m repro campaign examples/specs/campaign_smoke.json \
		--run-dir $(CAMPAIGN_SMOKE_DIR)/run \
		--csv-dir $(CAMPAIGN_SMOKE_DIR)/csv \
		--json-dir $(CAMPAIGN_SMOKE_DIR)/json

## Execute every fenced bash/python block in README.md and docs/*.md
## against a scratch directory (skip-marked blocks excepted), so the
## documented commands provably run as written.
docs-check:
	$(PYTHON) tools/docs_check.py

## Compare the latest BENCH_engine.json entry with the last 3 of its label
## and backend; fail on a >20% regression in any tracked metric (pure
## file read, no benchmarks run).
bench-regress:
	$(PYTHON) tools/bench_regress.py

## Fault-injection scenarios at smoke scale: poison quarantine, worker
## crash + pool self-heal, hang timeout, CLI worker kill (CSV must be
## byte-identical to an undisturbed run), and a live-server pool kill.
chaos-smoke:
	$(PYTHON) tools/chaos.py

## Sharded-cluster smoke: three supervised front-ends plus a store
## daemon take a keep-alive load while one front-end is SIGKILLed —
## every request must answer and the shard store must hold exactly one
## line per distinct job hash.
cluster-smoke:
	$(PYTHON) tools/cluster_smoke.py

## Backend seam smoke: the `repro backend` diagnostic (with its timed
## micro-probe) plus the two ≥3x speedup gates — which skip themselves,
## and leave the target green, on hosts where the C extension cannot
## build (numpy is always available).  Then the smoke campaign runs
## once on the numpy oracle and once on the default backend (cext
## where it loads), and the CSV and JSON exports must be byte-identical
## (the JSON's run-time `elapsed_s` line aside).
## REPRO_BATCH_MIN_FLOWS=1 sends every round through the batch kernel,
## which the smoke campaign's small rounds would otherwise skip.
BACKEND_SMOKE_DIR ?= .backend-smoke
backend-smoke:
	$(PYTHON) -m repro backend --probe
	$(PYTHON) -m pytest benchmarks/bench_backend.py -q
	rm -rf $(BACKEND_SMOKE_DIR)
	REPRO_BACKEND=numpy REPRO_BATCH_MIN_FLOWS=1 $(PYTHON) -m repro campaign \
		examples/specs/campaign_smoke.json \
		--run-dir $(BACKEND_SMOKE_DIR)/numpy/run \
		--csv-dir $(BACKEND_SMOKE_DIR)/numpy \
		--json-dir $(BACKEND_SMOKE_DIR)/numpy
	env -u REPRO_BACKEND REPRO_BATCH_MIN_FLOWS=1 $(PYTHON) -m repro campaign \
		examples/specs/campaign_smoke.json \
		--run-dir $(BACKEND_SMOKE_DIR)/default/run \
		--csv-dir $(BACKEND_SMOKE_DIR)/default \
		--json-dir $(BACKEND_SMOKE_DIR)/default
	cmp $(BACKEND_SMOKE_DIR)/numpy/campaign_smoke.csv \
		$(BACKEND_SMOKE_DIR)/default/campaign_smoke.csv
	diff -I '"elapsed_s"' $(BACKEND_SMOKE_DIR)/numpy/campaign_smoke.json \
		$(BACKEND_SMOKE_DIR)/default/campaign_smoke.json

## The full smoke path: tier-1 tests, executable documentation, the
## fault-injection scenarios (cluster kills included), the cluster
## smoke, the backend seam smoke, and the perf-trajectory regression
## gate.
smoke: test docs-check chaos-smoke cluster-smoke backend-smoke bench-regress

## Fast perf gate: ci-scale hot-path microbenchmarks (analysis kernel +
## simulator + serve throughput) plus the campaign-engine smoke and the
## executable docs, then append the wall-clock numbers to
## BENCH_engine.json so the trajectory across PRs stays comparable.
bench-smoke: campaign-smoke docs-check
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_engine_hotpath.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_sim_hotpath.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_serve.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_batch.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_allocate.py -q
	REPRO_SCALE=ci $(PYTHON) -m pytest benchmarks/bench_durability.py -q
	REPRO_SCALE=ci $(PYTHON) benchmarks/record_engine_bench.py smoke

## Append a BENCH_engine.json entry only (LABEL=<name> to tag it).
LABEL ?= run
bench-record:
	REPRO_SCALE=ci $(PYTHON) benchmarks/record_engine_bench.py $(LABEL)

## Paper-figure benchmarks at the configured REPRO_SCALE.
bench-figures:
	$(PYTHON) -m pytest benchmarks/bench_fig4.py benchmarks/bench_fig5.py -q

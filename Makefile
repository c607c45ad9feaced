PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint detcheck fuzz bench bench-e2e bench-all docs-check \
	api-check profile figures clean

## tier-1 test suite (what CI gates on)
test:
	$(PYTHON) -m pytest -x -q

## static analysis: the repo's determinism/oracle-discipline linter
## (rule catalog: docs/static-analysis.md), the optional third-party
## checks (ruff + mypy — skipped with a notice when not installed;
## `pip install -e .[lint]` enables them), and the hash-seed variance
## smoke check (one tiny scenario under two PYTHONHASHSEED values must
## produce byte-identical RunResult JSON)
lint:
	$(PYTHON) -m repro.analysis.lint
	$(PYTHON) tools/run_static_checks.py
	$(PYTHON) -m repro.analysis.detcheck

## the hash-seed variance smoke check alone (~5 s)
detcheck:
	$(PYTHON) -m repro.analysis.detcheck

## the standing oracle-matrix differential harness at full budget
## (>= 200 generated scenarios x every toggle leg x cold/warm cache;
## tier-1 runs the same tests at the small smoke budget)
fuzz:
	REPRO_FUZZ_PROFILE=differential $(PYTHON) -m pytest \
	    tests/differential tests/simulate/test_engine_fuzz.py -q

## regenerate benchmarks/BENCH_sim_core.json (engine events/sec, fig5b
## sweep wall-time legs, section-batching legs, fabric service/store
## legs) and print the tables; test_perf_engine.py rewrites the JSON,
## the others merge their legs in, so the order matters
bench:
	$(PYTHON) -m pytest benchmarks/test_perf_engine.py \
	    benchmarks/test_perf_batch.py benchmarks/test_perf_fabric.py \
	    -q -s

## the end-to-end benchmark (perfbench/README.md), untraced, on every
## workload: one JSON result line per workload (a few minutes)
bench-e2e:
	for w in paper-figures failure-sweep fabric-serve; do \
	    python3 perfbench/run.py --workload $$w --seed 1 --trace 0 \
	        || exit 1; \
	done

## docs: executable snippets in docs/*.md + intra-repo markdown links
docs-check:
	$(PYTHON) -m pytest tests/docs -q
	$(PYTHON) tools/check_md_links.py

## public API surface: repro.__all__ must match tools/public_api.txt
api-check:
	$(PYTHON) tools/check_public_api.py

## every figure-regeneration benchmark (tables under benchmarks/_results/)
bench-all:
	$(PYTHON) -m pytest benchmarks -q -s

## profile the fig5b sweep hot path (top 30 by cumulative time)
profile:
	$(PYTHON) -c "import cProfile, pstats; \
	from repro.experiments.fig5 import fig5b; \
	pr = cProfile.Profile(); pr.enable(); \
	fig5b(process_counts=(8, 16)); pr.disable(); \
	pstats.Stats(pr).sort_stats('cumulative').print_stats(30)"

## regenerate all paper tables (parallel, cached)
figures:
	$(PYTHON) -m repro.experiments --workers 2

clean:
	rm -rf .perf_cache benchmarks/_results/.sweep_cache
	find . -name __pycache__ -prune -exec rm -rf {} +

# Development workflow shortcuts.

.PHONY: install test lint lint-strict ci bench bench-full bench-ibs bench-pool bench-stream bench-data bench-serve examples experiments-smoke chaos stream-chaos data-chaos serve-chaos report clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

# Incremental: warm runs re-parse only changed files (a cold or corrupt
# cache transparently falls back to a full analysis).  The tree-hygiene
# guard runs first: no tracked bytecode or cache junk, ever.
lint:
	python scripts/check_tree.py
	PYTHONPATH=src python -m repro.analysis src/repro \
		--baseline analysis-baseline.json --cache .analysis-cache.json

# No baseline, no cache: the resilience / obs, data/store and serve
# subsystems must be clean outright (inline `# repro: ignore[...]`
# suppressions only), as the CI chaos, data-verify and serve-chaos stages
# check.  Every rule runs but R014: dead-export detection is meaningless on
# a subsystem slice, whose consumers live elsewhere.  Same list as
# STRICT_RULES in scripts/ci.py.
STRICT_RULES := R001,R002,R003,R004,R005,R006,R007,R008,R009,R010,R011,R012,R013,R015,R016

lint-strict:
	PYTHONPATH=src python -m repro.analysis src/repro/resilience src/repro/obs --rules $(STRICT_RULES)
	PYTHONPATH=src python -m repro.analysis src/repro/data/store --rules $(STRICT_RULES)
	PYTHONPATH=src python -m repro.analysis src/repro/serve --rules $(STRICT_RULES)

ci:
	PYTHONPATH=src python scripts/ci.py

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only -s

bench-full:
	PYTHONPATH=src REPRO_BENCH_FULL=1 pytest benchmarks/ --benchmark-only -s

# Re-baseline procedure: this target overwrites BENCH_ibs.json with fresh
# numbers.  After an intentional performance change, run `make bench-ibs`
# on a quiet machine and commit the refreshed file; scripts/check_bench.py
# gates CI against it.
bench-ibs:
	PYTHONPATH=src pytest benchmarks/test_engine_comparison.py \
		--benchmark-only --benchmark-json=BENCH_ibs.json -s

# Same re-baseline contract as bench-ibs, for the worker pool's parallel
# speedup (workers=1 vs 4 on a Fig. 9a sweep): overwrites BENCH_pool.json.
bench-pool:
	PYTHONPATH=src python scripts/bench_pool.py

# Same re-baseline contract, for streaming-audit throughput: a million-row
# delta workload through the durable journal + incremental re-scorer,
# overwriting BENCH_stream.json (deltas/sec, p95 batch latency, and the
# late/early latency ratio that proves per-batch cost independence).
bench-stream:
	PYTHONPATH=src python scripts/bench_stream.py

# Same re-baseline contract, for the sharded dataset plane: materializes
# Adult-like stores at 10^6 and 10^7 rows and records sharded vs in-memory
# region_counts seconds and peak RSS, overwriting BENCH_data.json.  The
# peak-RSS ceiling scripts/check_bench.py enforces is absolute — only the
# seconds are re-baselined by this target.
bench-data:
	PYTHONPATH=src python scripts/bench_data.py

# Same re-baseline contract, for the serving front: the seeded workload
# through a real localhost gateway vs the direct write path, plus an
# 8-producer overload phase against 2 admission slots, overwriting
# BENCH_serve.json.  The gateway_over_direct floor scripts/check_bench.py
# enforces is absolute — only the throughput/latency are re-baselined.
bench-serve:
	PYTHONPATH=src python scripts/bench_serve.py

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f || exit 1; done

# The chaos drills, one CI stage per target (docs/resilience.md, "Chaos
# drills"): a sweep under transient faults; worker crashes, hangs and a
# SIGKILLed driver; stream crashes around the journal append, a torn tail
# and a crash after compaction; a SIGKILLed materialize; and gateway
# crashes mid-ingest, mid-fetch and mid-remedy plus a SIGTERM drain.  Each
# must recover to the clean run's output byte for byte.
experiments-smoke:
	PYTHONPATH=src python -m repro.resilience.chaos --stage experiments-smoke

chaos:
	PYTHONPATH=src python -m repro.resilience.chaos --stage chaos

stream-chaos:
	PYTHONPATH=src python -m repro.resilience.chaos --stage stream-chaos

data-chaos:
	PYTHONPATH=src python -m repro.resilience.chaos --stage data-verify

serve-chaos:
	PYTHONPATH=src python -m repro.resilience.chaos --stage serve-chaos

report:
	PYTHONPATH=src python examples/regenerate_report.py REPORT.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

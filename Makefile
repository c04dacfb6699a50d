# Convenience targets for the DUP reproduction.
#
# The test/bench targets mirror what CI runs (.github/workflows/ci.yml);
# PYTHONPATH=src keeps everything import-from-source with no install step.

PYTHON ?= python
PY = PYTHONPATH=src $(PYTHON)

.PHONY: test record bench-scale ledger ledger-ab gc-phase paper-cell frames census perf-smoke profile clean

test:
	$(PY) -m pytest -q

# Regenerate every record in benchmarks/results/ at the quick scale
# (<id>.txt and BENCH_<id>.json, one `repro-dup run <id> --record` per
# committed <id>.txt; a failed shape check stops it), then render
# EXPERIMENTS.md's tables from them.  ~1.5 min on two cores.
record:
	for txt in benchmarks/results/*.txt; do \
	  $(PY) -m repro.cli run $$(basename $$txt .txt) --scale quick \
	    --replications 1 --record benchmarks/results || exit 1; \
	done
	$(PY) scripts/render_experiments.py

# Full (nodes x keys) capacity sweep up to the 10^5-node point; writes
# benchmarks/results/BENCH_scale.json.
# Trim with e.g. BENCH_SCALE_GRID=2048x256,8192x512.
bench-scale:
	$(PY) scripts/bench_scale.py

# The layered performance ledger (BENCHMARK.json): five pinned workloads,
# end-to-end and per-layer metrics, ~2.5 min.  The parent process sets
# its children's PYTHONPATH itself.
ledger:
	python3 benchmarks/ledger/run.py

# Judge a performance change: BASE revision against the working tree on
# one ledger workload, alternating pairs, verdicts against the
# BENCHMARK.json bounds.  make ledger-ab BASE=HEAD~1 WORKLOAD=churn-repair
# TRACE=1 compares the traced run's per-layer metrics instead and names
# the exact counts that differ.
PAIRS ?= 10
ledger-ab:
	python3 scripts/ledger_ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) $(if $(TRACE),--trace)

# Where the cyclic garbage collector runs between a ledger child's
# warm-up and the end of its timed constructor (read it before trusting
# a setup_s row).  make gc-phase WORKLOAD=cold-miss
gc-phase:
	python3 scripts/gc_phase.py $(WORKLOAD)

# One Table-I cell in one process: queries, wall, peak RSS, p50/p95/p99
# and the latency CI.  make paper-cell RATE=100 DURATION=36000
RATE ?= 100
DURATION ?= 180000
paper-cell:
	$(PY) scripts/paper_cell.py --rate $(RATE) --duration $(DURATION)

# Python frames per hit, per miss hop and per push, read off the three
# tier-1 frame fences' fixtures (counts, not clocks).  make frames
frames:
	$(PY) scripts/frames.py

# One row per src/ module: lines, importers by area, and whether the
# ledger warm-up loads it; rewrites the table in docs/architecture.md
# (CI fails while it is stale: python scripts/census.py --check).
census:
	python3 scripts/census.py --write

perf-smoke:
	$(PY) scripts/perf_smoke.py

profile:
	$(PY) -m repro.cli profile figure4 --top 20

clean:
	sh scripts/clean.sh

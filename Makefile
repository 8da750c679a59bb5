PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast coverage lint simlint ruff mypy \
	figure-check trace-smoke oracle-smoke explore-smoke serve-smoke \
	bench-gate bench-suite-smoke bench-ab conformance all

all: lint test

test:
	$(PYTHON) -m pytest -x -q

# everything except the tests marked `slow` (long e2e sweeps); CI and
# `make test` keep the full selection
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# line-coverage floor over src/repro (pytest-cov from the `lint` extra);
# skip with a notice when it is not installed rather than failing.
# Ratchet: raise the floor as tests land, never lower it.  Measured
# 89.6% at floor-setting time (tools/measure_coverage.py); the floor
# leaves a small margin for coverage.py accounting differences.
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term \
			--cov-report=xml --cov-fail-under=86; \
	else \
		echo "pytest-cov not installed (pip install -e '.[lint]'); skipping"; \
	fi

# the paper's figures end to end.  Cold: regenerate every checked-in
# figure table (Figs. 9-17 at the defaults) through one result cache and
# diff it against benchmarks/results/.  Warm: every figure again with
# --check, so the paper's claims (repro.analysis.figures.CLAIMS) must
# hold, no cell may be simulated and stdout must equal the cold tables
# byte for byte.  On a diff, .figure-check/ keeps the regenerated tables.
# Last, the table benches (ablations, scalability, storage, Fig. 17's
# recovery sweep) run their asserts and rewrite their tables, which must
# equal the checked-in ones (obs_overhead.txt is host timing: left out)
TABLE_BENCHES = benchmarks/bench_ablation_*.py \
	benchmarks/bench_scalability.py benchmarks/bench_table_storage.py \
	benchmarks/bench_fig17_recovery_time.py
FIGURE_TABLES = 9:fig09_exec_time 10:fig10_write_latency \
	11:fig11_read_latency 12:fig12_exec_time_sc 13:fig13_write_traffic \
	14:fig14_write_traffic_sc 15:fig15_energy 16:fig16_energy_sc \
	17:fig17_recovery_time
FIGURE = $(PYTHON) -m repro figure --jobs 2 --cache-dir .figure-check/cache
figure-check:
	rm -rf .figure-check && mkdir -p .figure-check
	for t in $(FIGURE_TABLES); do \
		$(FIGURE) $${t%%:*} > .figure-check/$${t#*:}.txt || exit 1; \
	done
	status=0; for t in $(FIGURE_TABLES); do \
		diff -u benchmarks/results/$${t#*:}.txt .figure-check/$${t#*:}.txt \
			|| status=1; \
	done; exit $$status
	$(FIGURE) --check > .figure-check/warm.txt 2> .figure-check/warm.err \
		|| { grep -v "^\[" .figure-check/warm.err; exit 1; }
	grep -q "^figure: [0-9]* cells, 0 simulated," .figure-check/warm.err
	for t in $(FIGURE_TABLES); do cat .figure-check/$${t#*:}.txt; done \
		| cmp - .figure-check/warm.txt
	rm -rf .figure-check
	$(PYTHON) -m pytest $(TABLE_BENCHES) --benchmark-disable
	git diff --exit-code -- benchmarks/results/

# full crash-space enumeration of a tiny trace (all four recovery
# schemes, torn variants, recovery/double crashes, mutant self-test):
# the bench does a cold+warm pass (warm must re-simulate nothing,
# reports must match) and writes BENCH_explore.json; the CLI reruns
# against the same cache must print byte-identical reports.  The bench
# executes every cell in-process and cold.txt reads them all from its
# cache, so an uncached --jobs 2 run (every cell executed by a crew
# worker, on that worker's memoized config and trace) must match it too.
# Then a budgeted frontier over a 400-access trace on Steins and WB:
# it reaches every injection point and outcome class the retired
# sampling campaign (`repro faults`) reported, cold at --jobs 2 and
# warm at --jobs 1 against one cache (the warm run simulates nothing
# and prints the same report)
EXPLORE_SMOKE = $(PYTHON) -m repro explore --small \
	--cache-dir .explore-smoke/cache
EXPLORE_BUDGET = $(PYTHON) -m repro explore --scheme steins --scheme wb \
	--accesses 400 --footprint 2048 --seed 1 --budget 20 \
	--recovery-cap 4 --cache-dir .explore-smoke/budget-cache
explore-smoke:
	rm -rf .explore-smoke && mkdir -p .explore-smoke
	$(PYTHON) tools/explore_bench.py BENCH_explore.json .explore-smoke/cache
	$(EXPLORE_SMOKE) --jobs 2 > .explore-smoke/cold.txt
	$(PYTHON) -m repro explore --small --jobs 2 > .explore-smoke/workers.txt
	cmp .explore-smoke/cold.txt .explore-smoke/workers.txt
	$(EXPLORE_SMOKE) --jobs 1 > .explore-smoke/warm.txt 2> .explore-smoke/warm.err
	grep -q "^explore: 0 cells simulated" .explore-smoke/warm.err
	cmp .explore-smoke/cold.txt .explore-smoke/warm.txt
	$(EXPLORE_BUDGET) --jobs 2 > .explore-smoke/budget-cold.txt
	$(EXPLORE_BUDGET) --jobs 1 > .explore-smoke/budget-warm.txt \
		2> .explore-smoke/budget-warm.err
	grep -q "^explore: 0 cells simulated" .explore-smoke/budget-warm.err
	cmp .explore-smoke/budget-cold.txt .explore-smoke/budget-warm.txt
	rm -rf .explore-smoke

# distributed sweep service end-to-end: boots the real `repro serve`
# CLI, routes a figure batch + an oracle batch through the socket, and
# requires byte-identity with serial execution (cold and warm), zero
# warm recomputes, and in-flight dedup of duplicate cells; writes
# BENCH_sweep.json (cells/sec cold+warm, hit rate, worker count)
serve-smoke:
	rm -rf .serve-smoke && mkdir -p .serve-smoke
	$(PYTHON) tools/serve_bench.py BENCH_sweep.json .serve-smoke/cache
	rm -rf .serve-smoke

# the CI throughput gate: three alternating pairs of the repo benchmark
# (benchmarks/suite) against the anchor revision that
# benchmarks/results/suite_trajectory.json names, checked out under
# .bench-ab/; fails when a run fails or when any workload's median
# work_per_s ratio over the anchor falls below 80% of the ratio the
# file pins for it (tools/bench_ab.py --trajectory; ~10 min, needs the
# anchor in the git history) — see docs/performance.md
bench-gate:
	$(PYTHON) tools/bench_ab.py \
		--trajectory benchmarks/results/suite_trajectory.json \
		--out .bench-ab/gate

# self-test of the repo benchmark (benchmarks/suite): every workload
# at 1% size, untraced and traced, through the real child processes;
# catches a rename of a method the traced run wraps
bench-suite-smoke:
	$(PYTHON) -m pytest benchmarks/suite/test_suite.py -q

# A/B run of the repo benchmark against PARENT (any git rev), the
# procedure of benchmarks/suite/README.md as one command
# (tools/bench_ab.py): PARENT is checked out in a worktree under
# .bench-ab/, each side runs the suite ten times, alternating which goes
# first, then `compare` prints every row and the win rate of each claim
# in BENCH_AB_CLAIM.  BENCH_AB_RUN goes to every `run` (e.g. "--seed 7
# --workload fig-hit", or "--trace 1"); results land in BENCH_AB_OUT.
#   make bench-ab PARENT=HEAD~1 BENCH_AB_CLAIM=fig-hit:work_per_s
BENCH_AB_CLAIM ?=
BENCH_AB_RUN ?=
BENCH_AB_OUT ?= .bench-ab/results
bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<rev>" >&2; exit 2; }
	$(PYTHON) tools/bench_ab.py $(PARENT) --out $(BENCH_AB_OUT) \
		$(foreach c,$(BENCH_AB_CLAIM),--claim $(c)) -- $(BENCH_AB_RUN)

# differential conformance suite: every scheme against the reference
# model — clean runs, crashes at the first, middle and last fire of
# each injection point plus crash-during-recovery doses (a sample, not
# explore-smoke's full enumeration), tampers (must be loud), and seeded
# mutants (must be caught); exits non-zero on any silent divergence.
# Cold + warm through the result cache: the warm run must simulate no
# cell and print a byte-identical report
ORACLE_SMOKE = $(PYTHON) -m repro oracle --all-schemes --seed 1 \
	--cache-dir .oracle-smoke/cache
oracle-smoke:
	rm -rf .oracle-smoke && mkdir -p .oracle-smoke
	$(ORACLE_SMOKE) --jobs 2 > .oracle-smoke/cold.txt
	$(ORACLE_SMOKE) --jobs 1 > .oracle-smoke/warm.txt 2> .oracle-smoke/warm.err
	grep -q "^oracle: 0 cells simulated" .oracle-smoke/warm.err
	cmp .oracle-smoke/cold.txt .oracle-smoke/warm.txt
	rm -rf .oracle-smoke

# the registry-parametrized conformance gate: the per-scheme test file
# (oracle cases, recovery properties, determinism, registration
# contract) plus the CLI oracle suite.  `make conformance SCHEME=x`
# restricts both to one registered scheme — the CI matrix runs one job
# per scheme this way; with no SCHEME everything registered is covered.
conformance:
ifdef SCHEME
	$(PYTHON) -m pytest -x -q tests/test_scheme_conformance.py -k "$(SCHEME)"
	$(PYTHON) -m repro oracle --scheme $(SCHEME) --seed 1 --jobs 2
else
	$(PYTHON) -m pytest -x -q tests/test_scheme_conformance.py
	$(PYTHON) -m repro oracle --all-schemes --seed 1 --jobs 2
endif

# traced run covering every event family (NVM, metacache, SIT,
# NV-buffer, ADR, recovery), then schema-validate both artifacts
trace-smoke:
	rm -rf .trace-smoke
	mkdir -p .trace-smoke
	$(PYTHON) -m repro trace steins-gc pers_hash \
		--accesses 6000 --footprint 32768 --small --recover \
		--out .trace-smoke > .trace-smoke/summary.txt
	cat .trace-smoke/summary.txt
	grep -q "blocks re-verified" .trace-smoke/summary.txt
	$(PYTHON) -m repro.obs .trace-smoke/trace.json .trace-smoke/metrics.json
	rm -rf .trace-smoke

lint: simlint ruff mypy

simlint:
	$(PYTHON) -m repro.analysis.lint src/
	$(PYTHON) -m repro.analysis.lint tests benchmarks --select SL101,SL102,SL103

# ruff/mypy come from the pinned `lint` extra (pip install -e .[lint]);
# skip with a notice when they are not installed rather than failing
ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e '.[lint]'); skipping"; \
	fi

mypy:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed (pip install -e '.[lint]'); skipping"; \
	fi

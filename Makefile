# Convenience targets; the source of truth is dune.

TRACE   := /tmp/artemis-trace.json
REPORT  := /tmp/artemis-report.json
CACHE   := /tmp/artemis-cache-smoke
BENCHDIR := /tmp/artemis-bench-smoke

.PHONY: all build test check bench trace-smoke lint-smoke analyze-smoke fuzz-smoke cache-smoke perf-smoke wavefront-smoke tb-smoke model-smoke obs-smoke perfbench-selftest clean

all: build

build:
	dune build @all

test:
	dune runtest

# What CI runs: everything must compile, the full suite must pass, the
# linter must accept the example and benchmark corpus, and the
# differential fuzzer must replay its smoke seeds with no findings.
check:
	dune build @all
	dune runtest
	$(MAKE) lint-smoke
	$(MAKE) analyze-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) cache-smoke
	$(MAKE) perf-smoke
	$(MAKE) wavefront-smoke
	$(MAKE) tb-smoke
	$(MAKE) model-smoke
	$(MAKE) obs-smoke
	$(MAKE) perfbench-selftest

bench:
	dune exec bench/main.exe

# End-to-end observability smoke test: record a trace + JSON report on
# the Jacobi example, then validate both by parsing them back.
trace-smoke:
	dune exec bin/artemisc.exe -- optimize examples/jacobi.stc \
	  --trace $(TRACE) --report-json $(REPORT) -o /dev/null
	dune exec bin/artemisc.exe -- trace-info $(TRACE)
	@grep -q '"schema_version"' $(REPORT) && echo "report OK: $(REPORT)"
	@rm -f examples/jacobi.stc.report.txt examples/jacobi.stc.*-fission.stc

# Lint smoke test (docs/LINT.md): the example program with its baseline
# plan and every Table-I benchmark must lint with no Error findings.
lint-smoke:
	dune exec bin/artemisc.exe -- lint examples/jacobi.stc --plan
	dune exec bin/artemisc.exe -- lint --suite --plan

# Affine dataflow smoke test (docs/ANALYSIS.md): the suite and the two
# pinned fuzz corpora must analyze with no Error findings, and the JSON
# rendering must be byte-stable across repeated runs.
analyze-smoke:
	dune exec bin/artemisc.exe -- analyze --suite --plan > /dev/null
	dune exec bin/artemisc.exe -- analyze --fuzz-corpus 42 --cases 25 \
	  --json > /tmp/artemis-analyze-a.json
	dune exec bin/artemisc.exe -- analyze --fuzz-corpus 42 --cases 25 \
	  --json > /tmp/artemis-analyze-b.json
	cmp /tmp/artemis-analyze-a.json /tmp/artemis-analyze-b.json \
	  && echo "analyze JSON stable"
	dune exec bin/artemisc.exe -- analyze --fuzz-corpus 7 --cases 25 > /dev/null
	@rm -f /tmp/artemis-analyze-a.json /tmp/artemis-analyze-b.json

# Differential verification smoke test (docs/VERIFY.md): seed 42 is the
# acceptance seed, seed 7 once crashed the pipeline, seed 1008 once
# generated an empty interior (A202) and seed 18 once caught an inexact
# class sum for a temporally blocked plan; all stay pinned.  All replay
# with the lint invariant armed (no Error finding on any accepted pair).
fuzz-smoke:
	dune exec bin/artemisc.exe -- fuzz --seed 42 --cases 25 --lint
	dune exec bin/artemisc.exe -- fuzz --seed 7 --cases 25 --lint
	dune exec bin/artemisc.exe -- fuzz --seed 1008 --cases 60 --lint
	dune exec bin/artemisc.exe -- fuzz --seed 18 --cases 30 --lint

# Measurement-cache replay (docs/PERF.md): entries truncated to half
# their size, then entries carrying another format version's header,
# must read as misses, so each rerun re-measures and emits the same CUDA
# as the cold run.  A skewed entry's payload is still well formed, so
# the last loop checks that the rerun rewrote every one of them.
cache-smoke:
	rm -rf $(CACHE) && mkdir -p $(CACHE)
	dune exec bin/artemisc.exe -- optimize examples/jacobi.stc \
	  --cache-dir $(CACHE)/d -o $(CACHE)/cold.cu
	for f in $(CACHE)/d/*.cache; do \
	  truncate -s $$(( $$(stat -c %s $$f) / 2 )) $$f || exit 1; done
	dune exec bin/artemisc.exe -- optimize examples/jacobi.stc \
	  --cache-dir $(CACHE)/d -o $(CACHE)/truncated.cu
	cmp $(CACHE)/cold.cu $(CACHE)/truncated.cu && echo "truncated cache replays"
	for f in $(CACHE)/d/*.cache; do \
	  printf 'artemis-measure-cache-0:' \
	    | dd of=$$f bs=1 conv=notrunc status=none || exit 1; done
	dune exec bin/artemisc.exe -- optimize examples/jacobi.stc \
	  --cache-dir $(CACHE)/d -o $(CACHE)/skewed.cu
	cmp $(CACHE)/cold.cu $(CACHE)/skewed.cu && echo "version-skewed cache replays"
	for f in $(CACHE)/d/*.cache; do \
	  [ "$$(head -c 24 $$f)" != 'artemis-measure-cache-0:' ] \
	    || { echo "$$f: skewed entry was read, not re-measured"; exit 1; }; done
	@rm -rf $(CACHE) examples/jacobi.stc.report.txt examples/jacobi.stc.*-fission.stc

# Executor smoke test (docs/PERF.md): the split-interior executor must
# match the guarded baseline bit for bit while actually sweeping an
# interior.  Host wall time is perfbench's, not a smoke test's.
perf-smoke:
	dune exec bench/main.exe -- exec-smoke

# Wavefront smoke test (docs/PERF.md): a Gauss-Seidel case through the
# wavefront schedule must match the guarded per-point fallback bit for
# bit while actually sweeping wavefront segments.
wavefront-smoke:
	dune exec bench/main.exe -- wavefront-smoke

# Temporal-blocking smoke test (docs/PERF.md): degree-4 blocked
# execution of the 7-point smoother must match the plain ping-pong
# schedule bit for bit, and deep tuning with --max-degree 4 must pick a
# degree above 1 with lower modeled per-step DRAM traffic.
tb-smoke:
	dune exec bench/main.exe -- tb-smoke

# Pre-rank smoke test (docs/MODEL.md): on every registry device the
# measurement-free pre-rank must pick the same winning plan as
# exhaustive measurement from strictly fewer measurements, and the
# decision journal with pre-ranking on must be byte-identical at jobs=1
# and jobs=4.
model-smoke:
	dune exec bench/main.exe -- model-smoke

# Provenance smoke test (docs/OBSERVABILITY.md): the explain report must
# be byte-identical at jobs=1 and jobs=4 (every tuner decision journaled
# in canonical order, independent of pool scheduling).  A fresh tuner
# bench, run in a scratch directory, must match the committed
# BENCH_tuner.json exactly (every gated value is modeled, counted or a
# plan-identity flag, so --threshold 0).  A fresh exec bench takes about
# two minutes, so the committed BENCH_exec.json is only self-compared.
obs-smoke:
	dune exec bin/artemisc.exe -- explain --bench 7pt-smoother --max-tile 2 \
	  --json -j 1 > /tmp/artemis-explain-j1.json
	dune exec bin/artemisc.exe -- explain --bench 7pt-smoother --max-tile 2 \
	  --json -j 4 > /tmp/artemis-explain-j4.json
	cmp /tmp/artemis-explain-j1.json /tmp/artemis-explain-j4.json \
	  && echo "explain deterministic across jobs"
	dune exec bin/artemisc.exe -- bench-diff BENCH_exec.json BENCH_exec.json
	dune build bench/main.exe
	rm -rf $(BENCHDIR) && mkdir -p $(BENCHDIR)
	cd $(BENCHDIR) && $(CURDIR)/_build/default/bench/main.exe tuner > /dev/null
	dune exec bin/artemisc.exe -- bench-diff --threshold 0 BENCH_tuner.json \
	  $(BENCHDIR)/BENCH_tuner.json
	@rm -rf $(BENCHDIR) /tmp/artemis-explain-j1.json /tmp/artemis-explain-j4.json

# Repository benchmark self-test (perfbench/README.md): each workload
# runs at self-test sizes, every BENCHMARK.json metric must print with
# its unit, and plan quality and counts must repeat exactly.
perfbench-selftest:
	python3 perfbench/selftest.py

clean:
	dune clean
	rm -f $(TRACE) $(REPORT)

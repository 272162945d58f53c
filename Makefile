.PHONY: all build test litmus examples smoke lint bmc check bench \
	service-smoke perfbench-gate fuzz-sweep clean

all: build

build:
	dune build

test:
	dune runtest

litmus:
	dune exec bin/vrm_cli.exe -- litmus

examples:
	dune build examples
	dune exec examples/quickstart.exe
	dune exec examples/litmus_gallery.exe
	dune exec examples/vm_lifecycle.exe
	dune exec examples/wdrf_audit.exe
	dune exec examples/migration.exe

# End-to-end CLI smoke: one litmus test through the shared JSON printer.
smoke:
	dune exec bin/vrm_cli.exe -- litmus mp-plain --stats
	dune exec bin/vrm_cli.exe -- litmus mp-plain --json

# Static wDRF lint over every kernel corpus entry, under BOTH engines
# (bounded-path and fixpoint), cross-validated against the dynamic
# checkers. Exits non-zero on any disagreement or on an engine
# divergence that is not pinned in Kernel_progs.lint_divergences.
lint:
	dune exec bin/vrm_cli.exe -- lint --engine=both --corpus

# Cross-validate the SAT-based BMC backend against the explicit-state
# engines: digest equality on every litmus-suite entry, both memory
# models. Exits non-zero on any divergence.
bmc:
	dune exec bin/vrm_cli.exe -- litmus --suite --backend=both

# The tier-1 gate: what CI runs. (CI additionally runs the paper bench,
# service-smoke, perfbench-gate and fuzz-sweep in their own jobs.)
check: build test examples litmus smoke lint bmc

# The paper's tables and figures with their shape checks, the lint and
# analyzer gates, and Bechamel timings (~10 s on a 2-vCPU box). Exits
# non-zero on any failed check.
bench:
	dune exec bench/main.exe

# Service smoke: start vrmd, push a corpus subset through the socket
# on both lanes, verify parity against direct runs, prune the cache
# with cache-gc, exercise graceful shutdown.
service-smoke: build
	sh scripts/service_smoke.sh

# Known-answer gate of the verifier benchmark: one short run each of
# the certify and bmc-decide workloads. perfbench/run.py exits 1 on any
# wrong verdict (2 if the tree does not build), which fails the target;
# the timings the runs print are never checked.
perfbench-gate:
	python3 perfbench/run.py --workload certify --seed 1 --seconds 5 --trace 0
	python3 perfbench/run.py --workload bmc-decide --seed 1 --seconds 5 --trace 0

# Deterministic whole-system fuzz sweep: the hypercall-storm driver of
# test_fuzz over every seed 0-9999 (60 steps each, ~2.5 min on a 2-vCPU box).
# Lists every seed that breaks a security invariant and exits non-zero
# if there is one, so an isolation regression fails every run instead
# of only the runs whose random seeds happen to hit it.
fuzz-sweep:
	dune exec test/fuzz/fuzz_sweep.exe

clean:
	dune clean

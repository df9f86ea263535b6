.PHONY: all build test check lint racecheck faultcheck servecheck chaoscheck \
	benchcheck benchbaseline fmt clean

all: build

build:
	dune build

test:
	dune runtest

# the CI gate: everything compiles and every suite passes
check: build test

# the static-analysis gate: rewrite-certificate soundness over the
# scenario fixtures, the SC-catalog linter, declared lock-order analysis
# over lib/srv + friends, and interface coverage — exits non-zero on any
# error and leaves the full report in check-report.txt
lint: build
	dune exec bin/softdb.exe -- check --root . --report check-report.txt

# the concurrency-soundness gate: eight sessions over real TCP plus an
# online index build, with the runtime lock-order witness armed — red on
# any live violation, on an observed edge the declared @lock-order rank
# table forbids or that names an undeclared lock, on a declared rank the
# traffic never exercised (unless waived with a reason), on an observed
# edge set other than the test's pinned list, or on locks held more than
# three deep.  Five runs in a row, so each must show the same edge set.
# The static half (lock order, @guarded-by) runs in `make lint`
racecheck: build
	for i in 1 2 3 4 5; do \
	  timeout 300 dune exec test/test_srv.exe -- test racecheck || exit 1; \
	done

# the crash matrix: a simulated crash at every registered fault point,
# recovery must land on exactly the pre- or post-transaction state
faultcheck:
	dune exec test/test_recovery.exe

# the concurrency gate: protocol round-trips, the single-writer lock,
# scheduler admission control, 8 concurrent sessions through the
# in-memory transport and again over TCP (the racecheck suite) — under a
# watchdog so a deadlock fails instead of hanging the build
servecheck:
	timeout 300 dune exec test/test_srv.exe

# the chaos gate: the torn-tail/bit-flip salvage matrix (part of the
# recovery suite), then overload through the server — the only worker
# latched and the queue full — that must trip the circuit breaker with
# no queued job dying of deadline expiry, then a crash-restart smoke: a
# real `softdb serve --wal` is SIGKILLed mid-traffic and restarted, and
# every acknowledged commit must survive (the result's last line must
# report "correct": true)
chaoscheck: build
	timeout 300 dune exec test/test_recovery.exe -- test salvage
	timeout 300 dune exec test/test_recovery.exe -- test edges
	timeout 300 dune exec test/test_srv.exe -- test breaker
	timeout 300 python3 scbench/run.py --workload serve_rw --seed 1 \
	  --seconds 3 --trace 0 | tail -n 1 \
	  | awk '{ print } /"correct": true/ { ok = 1 } END { exit !ok }'

# the plan-quality gate: run the quick scenario registry and diff the
# result against the committed baseline — deterministic metrics (rows
# scanned, q-error, rewrite counts, plan-cache hits, WAL bytes) gate
# hard; wall-clock drift is report-only.  The registry crosses the
# workloads with the SC modes (off/asc/ssc/exc/guarded/...), plus the
# index-only and partitioned runs, whose per-partition counters gate
# with zero slack (a pruned segment that does any work fails);
# EXPERIMENTS.md names the scenario or test behind each paper claim.  A
# scenario missing from either side fails
benchcheck: build
	dune exec bench/benchrun.exe -- --quick --label ci --out BENCH.json
	dune exec bin/softdb.exe -- benchdiff bench/baseline.json BENCH.json

# refresh the committed baseline after an intentional plan-quality change;
# review the diff of bench/baseline.json like any other code change
benchbaseline: build
	dune exec bench/benchrun.exe -- --quick --label baseline \
	  --out bench/baseline.json

fmt:
	dune fmt

clean:
	dune clean

GO ?= go

# Workload for the machine-readable bench snapshots and the committed
# baselines under results/. The numbers must stay in sync with the
# baselines: benchdiff refuses to compare snapshots with different
# parameters.
BENCH_FLAGS := -base 2000 -inserts 500 -xmark 1000 -xprime 200

.PHONY: all build test race lint bench bench-diff bench-baseline microbench check crash-matrix scrub-matrix fsck fuzz-smoke sim-smoke sim-seeds trace-smoke heat-smoke serve-smoke serve-baseline zoo experiments experiments-paper-scale clean

all: build test

# Static analysis: gofmt (any unformatted file fails), vet always;
# staticcheck when available. CI pins the staticcheck version via `go run`
# (see .github/workflows/ci.yml); local runs without it installed just
# skip that half rather than failing.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it via 'go run honnef.co/go/tools/cmd/staticcheck')"; \
	fi

# Everything the CI check job runs: vet, build, the full test suite (the
# race and crash-matrix jobs run separately; see those targets).
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

# The whole suite under the race detector, including the concurrent
# lookups-over-a-recovered-store walk in internal/crashmatrix and the
# readers-vs-batch-writer group-commit test in internal/core.
race:
	$(GO) test -race ./...

# Differential fuzzing on a smoke budget: every native fuzz target gets
# two minutes of coverage-guided input generation on top of the committed
# seed corpus. Finds cross-scheme divergences; failures drop a repro file
# into testdata/fuzz/ that should be committed as a regression.
fuzz-smoke:
	$(GO) test ./internal/difftest -fuzz=FuzzOps -fuzztime=2m

# Deterministic-simulation smoke gate: the fixed-seed battery (every
# scheme x the balanced and delete-heavy mixes x seeds 1..3) under
# composed fault schedules — crashes, torn writes, ENOSPC, fsync
# failures, transient flakes, crashes during WAL redo — plus the
# known-bug regression (the re-introduced tombstone-stranded W-BOX tree
# must be found, minimized and replayed byte-identically) and the
# seed-replay determinism tests. Failures drop replayable artifacts
# under boxsim-out/.
sim-smoke:
	$(GO) test ./internal/sim -count=1 -v
	$(GO) run ./cmd/boxsim -smoke -out boxsim-out

# Randomized-seed soak: fresh base seed each run (the clock), every
# scheme, every mix. boxsim prints each seed BEFORE running it, so a
# red run is replayable byte-identically from the log with
# `go run ./cmd/boxsim -seed N -scheme S -mix M`; failing histories are
# additionally minimized into boxsim-out/.
SIM_SEEDS ?= 4
sim-seeds:
	$(GO) run ./cmd/boxsim -seeds $(SIM_SEEDS) -seed-base $$(date +%s) \
		-scheme all -mix all -ops 250 -out boxsim-out

# The crash-point sweep: every scheme, every raw write point of a scripted
# durable workload, full cuts and torn writes, plus the corruption
# byte-flip matrix.
crash-matrix:
	$(GO) test ./internal/crashmatrix -v

# The runtime fault-tolerance sweep: transient write faults at every k-th
# raw write absorbed by bounded retries on all five scheme workloads, a
# permanent mid-workload fault flipping the store into read-only degraded
# mode with oracle-equal lookups, a hot backup taken mid-workload that
# opens fsck-clean at an exact op boundary, corruption surfacing as typed
# errors under concurrent readers, and the online scrubber / hot backup
# unit tests — then a CLI round trip: build a durable store, snapshot it,
# corrupt the original, prove fsck notices, restore, prove it is clean.
scrub-matrix:
	$(GO) test ./internal/crashmatrix -run 'TestTransientFaultSweep|TestPermanentWriteFaultDegrades|TestHotBackupDuringWorkload|TestCorruptReadsTypedUnderConcurrentReaders' -v
	$(GO) test ./internal/pager -run 'TestScrub|TestBackup' -v
	$(GO) run ./cmd/boxgen -elements 2000 -seed 1 > /tmp/boxes-scrub.xml
	$(GO) run ./cmd/boxload -scheme wbox -save /tmp/boxes-scrub.box -durable /tmp/boxes-scrub.xml
	$(GO) run ./cmd/boxbackup backup /tmp/boxes-scrub.box /tmp/boxes-scrub.bak
	printf 'garbage-bytes-for-scrub-matrix-corruption-test-0123456789abcdef' | dd of=/tmp/boxes-scrub.box bs=1 seek=16384 conv=notrunc status=none
	! $(GO) run ./cmd/boxbackup verify /tmp/boxes-scrub.box
	$(GO) run ./cmd/boxbackup restore /tmp/boxes-scrub.bak /tmp/boxes-scrub.box

# The adversarial workload zoo: the adaptive-source unit tests, the
# cross-scheme differential runs of every zoo workload on every document
# shape (oracle equality + strict ledger conservation), the churn
# regression that provably reaches the W-BOX dead>=live global rebuild,
# the zoo crash sweep (power cut at every write point of the churn and
# bisection workloads), and the zipf-readers-vs-churn-writer race test
# with a durable reopen mid-run.
zoo:
	$(GO) test ./internal/workload -count=1 -race -v
	$(GO) test ./internal/difftest -run 'TestZoo|TestChurn' -count=1 -v
	$(GO) test ./internal/crashmatrix -run 'TestZooCrashSweep' -count=1 -v
	$(GO) test ./internal/sim -run 'TestSimZoo|TestSimZipf|TestSimSteady' -count=1 -v

# Build a small store end to end and verify it offline with boxfsck.
fsck:
	$(GO) run ./cmd/boxgen -elements 5000 -seed 1 > /tmp/boxes-fsck.xml
	$(GO) run ./cmd/boxload -scheme wbox -save /tmp/boxes-fsck.box -fsck /tmp/boxes-fsck.xml
	$(GO) run ./cmd/boxfsck -v /tmp/boxes-fsck.box

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# Machine-readable snapshots: BENCH_<experiment>.json in the working
# directory, one per update experiment (ops, I/Os per op, latency
# percentiles, final structural gauges per scheme).
bench:
	$(GO) run ./cmd/boxbench -exp snap $(BENCH_FLAGS) -json .

# Fresh snapshots compared against the committed baselines; fails when any
# scheme's I/O cost regressed by more than 25%. The group run additionally
# gates the phase-attribution contract: in per-op mode the commit path
# (wal_commit + fsync_wait) must still account for the majority of durable
# insert latency (floor 0.5; measured ~0.9 — a collapse means the phase
# plumbing stopped attributing the fsync cost), while at batch 8 group
# commit must keep that share off the critical path (ceiling 0.05;
# measured ~0.003).
#
# The scattered run additionally gates the paper's amortized bounds via the
# cost ledger: W-BOX must keep its amortized relabeled-records-per-insert
# constant (measured 8 — one leaf rewrite per insert; ceiling 16), while
# naive-1 must still exhibit the unbounded whole-document sweeps the
# Bulánek–Koucký–Saks lower bound forces (measured ~4500 at this workload
# size; floor 1000 — a collapse of THIS number means the ledger stopped
# attributing relabeling, not that naive got fast).
# The adv run gates the lower-bound headline: under the BKS bisection
# adversary naive-8's amortized relabeled records per insert collapses to
# whole-document sweeps (measured ~554 at this size, linear in N; floor
# 300), while W-BOX stays a small constant (measured ~3.8 from empty;
# ceiling 8 = 2x its uniform-scattered baseline value) and B-BOX relabels
# nothing at all (ceiling 0.5) — the paper's "any insertion sequence"
# claim as an absolute CI gate.
bench-diff: bench
	$(GO) run ./cmd/benchdiff -threshold 0.25 results/baseline.json BENCH_concentrated.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 \
		-max 'W-BOX:boxes_amortized_relabels_per_insert=16' \
		-min 'naive-1:boxes_amortized_relabels_per_insert=1000' \
		results/baseline-scattered.json BENCH_scattered.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 results/baseline-xmark.json BENCH_xmark.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 results/baseline-durable.json BENCH_durable.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 \
		-max 'group-8:pager_wal_syncs_per_op=0.25' \
		-max 'group-8:phase_share_commit_wait=0.05' \
		-min 'per-op:phase_share_commit_wait=0.5' \
		results/baseline-group.json BENCH_group.json
	$(GO) run ./cmd/benchdiff -threshold 0.25 \
		-min 'naive-8:boxes_amortized_relabels_per_insert=300' \
		-max 'W-BOX:boxes_amortized_relabels_per_insert=8' \
		-max 'B-BOX:boxes_amortized_relabels_per_insert=0.5' \
		results/baseline-adv.json BENCH_adv.json

# Regenerate the committed baselines after an intentional performance
# change (review the diff before committing).
bench-baseline:
	$(GO) run ./cmd/boxbench -exp snap $(BENCH_FLAGS) -json results
	mv results/BENCH_concentrated.json results/baseline.json
	mv results/BENCH_scattered.json results/baseline-scattered.json
	mv results/BENCH_xmark.json results/baseline-xmark.json
	mv results/BENCH_durable.json results/baseline-durable.json
	mv results/BENCH_group.json results/baseline-group.json
	mv results/BENCH_adv.json results/baseline-adv.json

# Heat-map smoke: run the scattered-insertion experiment (the workload the
# amortized gates watch) with the metrics endpoint up, snapshot /debug/heat
# into heat-scattered.json (the artifact CI uploads), and assert the live
# conservation check inside the payload passed. The server lingers after
# the workload, so the snapshot is quiescent and exact.
heat-smoke:
	$(GO) build -o /tmp/boxbench-heat ./cmd/boxbench
	rm -f /tmp/boxes-heat.log
	/tmp/boxbench-heat -exp fig7 -base 2000 -inserts 500 -metrics 127.0.0.1:9310 -linger \
		> /tmp/boxes-heat.log 2>&1 & echo $$! > /tmp/boxes-heat.pid
	@for i in $$(seq 1 120); do grep -q lingering /tmp/boxes-heat.log && break; sleep 1; done; \
		grep -q lingering /tmp/boxes-heat.log || { echo "boxbench never reached linger:"; cat /tmp/boxes-heat.log; kill $$(cat /tmp/boxes-heat.pid); exit 1; }
	curl -fsS http://127.0.0.1:9310/debug/heat > heat-scattered.json
	curl -fsS http://127.0.0.1:9310/metrics | grep -E 'boxes_amortized_|boxes_heat_|boxes_cost_' > heat-gauges.txt
	kill $$(cat /tmp/boxes-heat.pid)
	grep -q '"conservation_ok":true' heat-scattered.json
	grep -q '"name":"inserts"' heat-scattered.json
	@echo "heat-smoke: conservation ok; snapshot in heat-scattered.json"

# Workload for the served-load snapshot and its committed baseline;
# benchdiff refuses to compare snapshots with different parameters, so
# serve-smoke and serve-baseline must agree on these.
SERVE_LOAD_FLAGS := -conns 4 -ops 2000 -seed 1

# Network-service smoke: start boxserve, run the benchdiff-gated zipf
# load, then a churn load while the server injects connection faults
# (every 7th response write kills the connection — clients must retry
# and the session dedup must keep every op exactly-once), SIGTERM a
# graceful drain, and verify the store offline with boxfsck. The gate
# floors acked ops (a collapse means retry/dedup broke) and compares the
# snapshot against the committed baseline in results/.
serve-smoke:
	$(GO) build -o /tmp/boxserve-smoke ./cmd/boxserve
	$(GO) build -o /tmp/boxclient-smoke ./cmd/boxclient
	-@kill $$(cat /tmp/boxes-serve.pid 2>/dev/null) 2>/dev/null; sleep 1
	rm -f /tmp/boxes-serve.box /tmp/boxes-serve.log
	/tmp/boxserve-smoke -store /tmp/boxes-serve.box -addr 127.0.0.1:9420 -metrics 127.0.0.1:9421 \
		-fault-kth 7 -fault-mode crash -fault-seed 3 \
		> /tmp/boxes-serve.log 2>&1 & echo $$! > /tmp/boxes-serve.pid
	@for i in $$(seq 1 60); do grep -q serving /tmp/boxes-serve.log && break; sleep 1; done; \
		grep -q serving /tmp/boxes-serve.log || { echo "boxserve never came up:"; cat /tmp/boxes-serve.log; exit 1; }
	/tmp/boxclient-smoke -addr 127.0.0.1:9420 -load -source zipf $(SERVE_LOAD_FLAGS) -json .
	/tmp/boxclient-smoke -addr 127.0.0.1:9420 -load -source churn $(SERVE_LOAD_FLAGS)
	curl -fsS http://127.0.0.1:9421/metrics | grep -E '^serve_requests_total|^serve_sessions|^pager_wal_size_bytes'
	kill -TERM $$(cat /tmp/boxes-serve.pid)
	@for i in $$(seq 1 60); do grep -q 'closed' /tmp/boxes-serve.log && break; sleep 1; done; \
		grep -q 'closed' /tmp/boxes-serve.log || { echo "drain did not complete:"; cat /tmp/boxes-serve.log; exit 1; }
	$(GO) run ./cmd/boxfsck -v /tmp/boxes-serve.box
	$(GO) run ./cmd/benchdiff -min 'zipf:serve_acked=1900' \
		results/baseline-serve.json BENCH_serve.json
	@echo "serve-smoke: faults absorbed, drain clean, store fsck-clean"

# Regenerate the committed served-load baseline after an intentional
# change to the serve layer (fault-free run; review the diff).
serve-baseline:
	$(GO) build -o /tmp/boxserve-smoke ./cmd/boxserve
	$(GO) build -o /tmp/boxclient-smoke ./cmd/boxclient
	-@kill $$(cat /tmp/boxes-serve-base.pid 2>/dev/null) 2>/dev/null; sleep 1
	rm -f /tmp/boxes-serve-base.box /tmp/boxes-serve-base.log
	/tmp/boxserve-smoke -store /tmp/boxes-serve-base.box -addr 127.0.0.1:9422 \
		> /tmp/boxes-serve-base.log 2>&1 & echo $$! > /tmp/boxes-serve-base.pid
	@for i in $$(seq 1 60); do grep -q serving /tmp/boxes-serve-base.log && break; sleep 1; done
	/tmp/boxclient-smoke -addr 127.0.0.1:9422 -load -source zipf $(SERVE_LOAD_FLAGS) -json results
	kill -TERM $$(cat /tmp/boxes-serve-base.pid)
	mv results/BENCH_serve.json results/baseline-serve.json

# Span-tracing smoke: the group-commit experiment with the Chrome trace
# exporter on (the artifact CI uploads; load it in Perfetto — the
# group-8x4 mode shows several batch spans resolved by one fsync span),
# plus the null-span guarantee that disabled tracing costs zero
# allocations on the op path.
trace-smoke:
	$(GO) run ./cmd/boxbench -exp tgroup -trace trace-tgroup.json
	$(GO) test ./internal/obs -run 'TestTracerDisabledIsNullAndAllocFree' -count=1 -v
	$(GO) test ./internal/core -run 'TestPhaseCoverageDurable|TestBatchTraceCoalescing' -count=1 -v

microbench:
	$(GO) test -bench=. -benchmem .

# Regenerate every figure and table of the paper at laptop scale (~1 min).
experiments:
	$(GO) run ./cmd/boxbench -exp all

# The paper's own workload sizes (2M-element base document; hours, the
# naive schemes dominate).
experiments-paper-scale:
	$(GO) run ./cmd/boxbench -exp all -scale 100

clean:
	$(GO) clean ./...

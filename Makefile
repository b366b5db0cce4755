GO ?= go

.PHONY: build test vet benchvet race fuzz bench check faultcheck obscheck sketchcheck snapcheck vantagecheck crashcheck perfcheck sweepsmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# benchvet vets and builds the nested pipebench module, which imports the
# study packages but is outside the root module's ./... pattern.
benchvet:
	cd pipebench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

# The simulation engine runs client shards concurrently, every study sink
# (CF pipelines, Chrome telemetry, list providers) folds shard states on
# those worker goroutines, the experiments evaluate on a shared artifact
# store, the name interner serves lock-free concurrent readers, and the
# probe network injects faults under load; the race pass covers every
# package that touches a parallel path, with -shuffle=on so test-order
# coupling can't hide behind a fixed schedule.
# The tracer ring, the study's probe table, the lock-free ranking reads
# (checked against a serial study while days advance, and shown not to
# wait behind an advance holding the lifecycle lock) and the lock-free CF
# set reads (shown not to wait behind a sweep holding the probe lock) are
# hammered ten times over first, since one pass rarely lands two
# goroutines on the same slot, sweep or day.
race:
	$(GO) test -race -count=10 -run 'TestTraceConcurrentSpans|TestProbeTableConcurrent|TestReadsDuringAdvance|TestReadsDoNotWaitForAdvance|TestCFSetReadsDoNotWaitForSweep' ./internal/obs ./internal/core
	$(GO) test -race -shuffle=on ./internal/names ./internal/rank ./internal/sketch ./internal/cfmetrics ./internal/chrome ./internal/providers ./internal/traffic ./internal/core ./internal/experiments ./internal/httpsim ./internal/obs ./internal/snapshot ./internal/world ./internal/sweep ./internal/perfgate ./cmd/toplistsd

# obscheck is the telemetry and fault-injection determinism oracle: at a
# fixed seed and a nonzero fault rate, instrumentation must never perturb
# study output (renders stay byte-identical), and the full render and the
# run report's deterministic subset (counters + gauges) must be
# byte-identical across worker counts, tracing, and repeated runs.
obscheck:
	$(GO) test -run=TestObsDeterminism -count=1 .

# faultcheck is the fault-injection determinism oracle; obscheck's study
# runs at a nonzero fault rate and covers it, so the name is kept as an
# alias.
faultcheck: obscheck

# sketchcheck is the sketch-vs-exact oracle: sketch-mode rankings must track
# the exact oracle (Kendall tau >= 0.98, Jaccard@{100,1k} >= 0.99 over three
# seeds) and stay byte-identical across worker counts.
sketchcheck:
	$(GO) test -run='TestSketchOracle|TestSketchDeterminism' -count=1 .

# snapcheck is the checkpoint/restore oracle: a study checkpointed at day
# k in {1,7,27} and resumed at a different worker count must advance to
# day 28 and publish every list and the resume-stable report subset
# byte-identically to a straight 28-day run — exact and sketch mode, with
# deterministic fault injection on. The HTTP service-mode smoke (start,
# advance, checkpoint, restore, compare) rides in the toplistsd tests.
snapcheck:
	$(GO) test -run=TestSnapCheck -count=1 .
	$(GO) test -count=1 ./cmd/toplistsd ./internal/snapshot

# crashcheck is the kill-anywhere chaos oracle: the real toplistsd binary,
# auto-checkpointing on a fast ticker, is SIGKILLed at seed-keyed offsets
# (mid-day, between generations, and mid-checkpoint-write via the
# TOPLISTSD_CRASHPOINT hook), restarted through the recovery supervisor
# each time, and must finish the month byte-identical over HTTP to an
# uninterrupted run — for three seeds. A torn-on-disk generation must be
# rejected visibly and recovery must fall back a generation. Set
# CRASHCHECK_LOG=path to capture the kill schedule (CI uploads it).
crashcheck:
	$(GO) test -run=TestCrashCheck -count=1 -v .

# vantagecheck is the multi-vantage oracle: an explicit single-edge config
# (Vantages=1, Backends=1) must render byte-identically to the zero-value
# config and to the pre-refactor golden, and the full 3x3 vantage/backend
# grid must render byte-identically across worker counts {1,4,auto} in
# both exact and sketch modes.
vantagecheck:
	$(GO) test -run=TestVantageCheck -count=1 .

# Short fuzz smoke of the rank-bucketing, PSL-normalization, interner,
# fault-plan, probe-key, toplistsd query-parameter, sketch and
# distinct-counter decoder targets (seeds + 10s each). FuzzNormalize and
# FuzzServerQuery minimize each new corpus entry for at most 1s: at the
# default 60s a 10s smoke can spend most of its budget minimizing at
# 0 execs/s. A failing input is still reported, only less minimized.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzScaledMagnitudes -fuzztime=10s ./internal/rank
	$(GO) test -run=^$$ -fuzz=FuzzBucketer -fuzztime=10s ./internal/rank
	$(GO) test -run=^$$ -fuzz=FuzzNormalize -fuzztime=10s -fuzzminimizetime=1s ./internal/rank
	$(GO) test -run=^$$ -fuzz=FuzzInternLookupRoundTrip -fuzztime=10s ./internal/names
	$(GO) test -run=^$$ -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzDecodeKey -fuzztime=10s ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzServerQuery -fuzztime=10s -fuzzminimizetime=1s ./cmd/toplistsd
	$(GO) test -run=^$$ -fuzz=FuzzBucketIndex -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzCountMin -fuzztime=10s ./internal/sketch
	$(GO) test -run=^$$ -fuzz=FuzzSpaceSaving -fuzztime=10s ./internal/sketch
	$(GO) test -run=^$$ -fuzz=FuzzSketchMerge -fuzztime=10s ./internal/sketch
	$(GO) test -run=^$$ -fuzz=FuzzHLL -fuzztime=10s ./internal/sketch
	$(GO) test -run=^$$ -fuzz=FuzzDecodeDistinct -fuzztime=10s ./internal/sketch

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The interned-evaluation microbenchmarks: string path vs ID path for
# top-k set builds, rank lookups, and Jaccard (history in EXPERIMENTS.md,
# "Retired one-off records").
benchrank:
	$(GO) test -run=^$$ -bench='BenchmarkRanking|BenchmarkJaccard' -benchmem ./internal/rank ./internal/stats

# One iteration of every benchmark, everywhere: cheap proof that the bench
# harness still compiles and runs (CI's bench smoke). The rank/stats set
# includes BenchmarkRankingTopSetIDs and BenchmarkJaccardIDs, keeping the
# interned fast paths exercised on every CI run.
benchsmoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# perfcheck is the enforced perf trajectory: run the pinned hot-path
# benchmark set (engine day, warm RenderAll, top-set build, Jaccard,
# sketch merge, snapshot encode) and compare against the committed
# BENCH_baseline.json, failing on any regression beyond 15% (plus
# $PERFGATE_SLACK, which CI sets to keep shared runners advisory).
# Comparisons are ratios to an interleaved machine-speed reference, so
# the committed baseline transfers across machines. Regenerate the
# baseline after a deliberate perf change with:
#   go run ./cmd/sweep -perfgate -update-baseline -rounds 7
perfcheck:
	$(GO) run ./cmd/sweep -perfgate -rounds 7

# sweepsmoke drives the grid runner end to end on a tiny 2x2 grid
# (2 seeds x exact/sketch), then re-runs it to prove per-cell resume:
# the second pass must skip every completed cell. Artifacts (per-cell
# reports + merged sweep.csv) land in sweep-smoke/ for CI to upload.
sweepsmoke:
	rm -rf sweep-smoke
	$(GO) run ./cmd/sweep -seeds 11,12 -sites 600 -clients 150 -days 2 \
		-sketch both -experiments tab2,fig2 -par 4 -out sweep-smoke
	$(GO) run ./cmd/sweep -seeds 11,12 -sites 600 -clients 150 -days 2 \
		-sketch both -experiments tab2,fig2 -par 4 -out sweep-smoke -v

# check is the CI gate: everything must pass before merging.
check: build vet benchvet test race faultcheck obscheck sketchcheck snapcheck vantagecheck crashcheck perfcheck sweepsmoke

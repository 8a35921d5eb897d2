# Developer entry points. The tier-1 gate (what CI and the roadmap require)
# is `make check`; `make race` runs the concurrency-heavy packages under the
# race detector with widened timing windows (see internal/cluster/race_on_test.go).

GO ?= go

.PHONY: build portable test vet lint lint-fast check race fuzz recover bench benchdiff benchall churn clean

build:
	$(GO) build ./...

## portable: internal/tensor has assembly bodies on amd64 only. Everywhere
## else runs the pure-Go ones, so they must keep compiling and vetting there
## (stock go vet's asmdecl, part of lint, already holds the amd64 frames to
## their Go declarations). And no fused multiply-add may appear in the
## assembly: the Go compiler does not fuse on amd64, so the unfused pair is
## what the portable bodies compute and what every golden file was recorded
## with.
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/nn
	@! grep -rnE 'VFN?MADD' internal/tensor || { echo "fused multiply-add under internal/tensor"; exit 1; }

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## lint: formatting plus the two static-analysis gates — stock go vet and
## the repo's own flvet suite (determinism, map-order, reduction-order,
## goroutine-policy, wire-allocation, nil-sink, checkpoint-completeness,
## and allocation-free hot-path invariants; see DESIGN.md §11 and §13).
## flvet runs against the committed baseline ratchet: accepted debt in
## analysis_baseline.json passes, new findings fail, fixed findings
## shrink the file.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/flvet -baseline analysis_baseline.json ./...

## lint-fast: flvet only over the packages whose files changed vs
## origin/main (plus gofmt on the whole tree, which is cheap). Falls back
## to the full run when the merge base is unavailable (shallow clone) or
## when module-wide files like go.mod or the analysis suite itself
## changed. The whole-program checkers (ckptstate, allocfree) still load
## the full module for cross-package facts — this skips only the
## per-package reporting, which is where the time goes.
lint-fast:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@base=$$(git merge-base origin/main HEAD 2>/dev/null); \
	if [ -z "$$base" ]; then \
		echo "lint-fast: no merge base with origin/main; running full lint"; \
		$(GO) run ./cmd/flvet -baseline analysis_baseline.json ./...; exit $$?; fi; \
	changed=$$(git diff --name-only $$base HEAD -- '*.go'; git status --porcelain | awk '/\.go$$/ {print $$2}'); \
	if echo "$$changed" | grep -qE '^(go\.mod|go\.sum|internal/analysis/)'; then \
		echo "lint-fast: analysis suite or module files changed; running full lint"; \
		$(GO) run ./cmd/flvet -baseline analysis_baseline.json ./...; exit $$?; fi; \
	pkgs=$$(echo "$$changed" | xargs -r -n1 dirname | sort -u | sed 's|^|./|'); \
	if [ -z "$$pkgs" ]; then echo "lint-fast: no Go changes vs origin/main"; exit 0; fi; \
	echo "lint-fast: $$pkgs"; \
	$(GO) run ./cmd/flvet -baseline analysis_baseline.json $$pkgs

## check: the tier-1 gate — build (and the portable build, see above), lint
## (gofmt + go vet + flvet against the committed baseline), the full test
## suite, the crash-recovery integration pass, the race-detector sweep, and
## the perf gate against the committed benchmark baseline. Also leaves the machine-readable
## findings artifact (flvet_findings.json) for CI to archive and diff.
check: build portable lint test recover race benchdiff
	$(GO) run ./cmd/flvet -json ./... > flvet_findings.json || true
	@echo "check: wrote flvet_findings.json"

## race: race-detect the distributed runtime, transport layers, checkpoint
## snapshot/restore, telemetry instruments (scraped concurrently with
## writers), and the parallel training paths (core/baseline worker pools,
## the nn workspace free list).
race:
	$(GO) test -race -count=1 ./internal/cluster/... ./internal/transport/... \
		./internal/checkpoint/... ./internal/parallel/... ./internal/core/... \
		./internal/baseline/... ./internal/fl/... ./internal/nn/... \
		./internal/tensor/... ./internal/robust/... \
		./internal/telemetry/... ./internal/membership/... ./cmd/tracecat/...

## fuzz: short-budget fuzzing of the byte-boundary decoders — the
## checkpoint snapshot reader, the telemetry JSONL trace reader, and the
## tracecat line parser — plus the conv-kernel equivalence target, which
## asserts the im2col/GEMM forward+backward stays bitwise identical to the
## retained naive reference on fuzzer-chosen shapes and data, and the
## dense-kernel equivalence target, which holds the matrix-vector and rank-1
## shapes (GEMMBias at n = 1, GEMMAddTransB at k = 1) to their scalar
## definitions the same way, and the block weight-gradient target, which holds
## GEMMAdd (entry point and portable body) to the rank-1 updates it stands for,
## and the vector-kernel equivalence target, which
## holds the dispatching conv GEMMs (the AVX2 assembly, where the CPU has it)
## to their portable bodies, and the robust-aggregation targets, which
## assert median/trimmed-mean reject (never propagate) non-finite reporter
## values on fuzzer-chosen cohorts,
## and the topology-spec parser, which must yield a tree or a typed error
## (never a panic) on arbitrary spec strings, with String/Parse
## round-tripping every accepted tree, and the wire-frame decoder, which
## must yield a Message or ErrFrame / a truncation error without allocating
## past its caps, every accepted frame re-encoding to the bytes it came from.
## Every input must yield a decoded value or a wrapped error, never a
## panic or an unbounded allocation. Override with FUZZTIME=1m for longer
## runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/checkpoint/ -fuzz FuzzOpenSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz 'FuzzReadTrace$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz FuzzReadTraceRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/tracecat/ -run '^$$' -fuzz FuzzParseLine -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nn/ -run '^$$' -fuzz FuzzConvGEMMEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzDenseKernelEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzGEMMAddEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzVectorKernelEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/robust/ -run '^$$' -fuzz FuzzMedianAggregate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/robust/ -run '^$$' -fuzz FuzzTrimmedMean -fuzztime $(FUZZTIME)
	$(GO) test ./internal/topology/ -run '^$$' -fuzz FuzzParseTopology -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis/ -run '^$$' -fuzz FuzzAllowDirective -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME)

## recover: the crash-recovery integration suite — checkpoint format and
## corruption handling, bit-identical simulation resume, cluster
## interrupt/restart/rejoin, and the process-level SIGKILL/SIGTERM tests.
recover:
	$(GO) test -count=1 ./internal/checkpoint/... || exit 1
	$(GO) test -count=1 ./internal/core/... ./internal/baseline/... -run 'Resume' || exit 1
	$(GO) test -count=1 ./internal/cluster/... \
		-run 'TestCluster(InterruptResume|CrashRestartMatchesParticipation|WorkerRestartRejoins)|TestTreeRestartSupervisor' || exit 1
	$(GO) test -count=1 ./cmd/flnode/ -run 'TestMultiProcessKillRestart' || exit 1
	$(GO) test -count=1 ./cmd/flcluster/ -run 'TestSigterm|TestDoubleSignal'

## bench: run the core, wire, snapshot and kernel benchmarks with -benchmem
## and record the perf trajectory (ns/op, B/op, allocs/op, worker-pool size)
## in BENCH_core.json, BENCH_wire.json (frame encode/decode and the memory
## and TCP-loopback round trip at the leaf-report shape, 4 x 15380 values),
## BENCH_ckpt.json (one node's Registry.Save into a real directory at the
## leaf and tier shapes, 4 and 12 x 15380 values) and BENCH_kernels.json
## (internal/tensor: the two conv GEMMs at the CNN's two layer shapes and the
## Dense weight gradient at the sync model's, in GFLOP/s; internal/nn: one forward and one loss-gradient per architecture
## family, and the single-Dense classifiers at the shapes the runs train,
## batch 8).
## -count=3 repetitions are merged best-of-N by benchjson: the minimum is
## the stable noise estimator on a shared box, where interference only ever
## adds time (observed single-run spread on this host is >30%).
BENCHFLAGS = -bench=. -benchmem -benchtime=10x -count=3 -run=^$$
# A wire op — or a kernel step — is tens to hundreds of microseconds, not the
# core round's 20 ms: ten iterations would time scheduler wake-ups, not the
# codec.
WIREBENCHFLAGS = -bench=. -benchmem -benchtime=200x -count=3 -run=^$$
# A raw conv GEMM is 2 to 25 microseconds, and the first few hundred calls of
# a process run at a third of the steady rate on this host: the GFLOP/s rows
# need a run long enough to be past that.
GEMMBENCHFLAGS = -bench=GEMM -benchmem -benchtime=20000x -count=3 -run=^$$
KERNELBENCH = { $(GO) test $(GEMMBENCHFLAGS) ./internal/tensor; \
	$(GO) test $(WIREBENCHFLAGS) ./internal/nn; }
bench:
	$(GO) test $(BENCHFLAGS) ./internal/core \
		| $(GO) run ./cmd/benchjson -out BENCH_core.json
	$(GO) test $(WIREBENCHFLAGS) ./internal/transport \
		| $(GO) run ./cmd/benchjson -out BENCH_wire.json
	$(GO) test $(WIREBENCHFLAGS) ./internal/checkpoint \
		| $(GO) run ./cmd/benchjson -out BENCH_ckpt.json
	$(KERNELBENCH) \
		| $(GO) run ./cmd/benchjson -out BENCH_kernels.json
	@cat BENCH_core.json BENCH_wire.json BENCH_ckpt.json BENCH_kernels.json

## benchdiff: the perf gate — rerun the core benchmarks and fail when any
## ns/op, B/op, or allocs/op regressed beyond its budget against the
## committed BENCH_core.json, or when a workers=N benchmark stops holding
## its own against workers=1 (core-count-aware: on a single-core host the
## pool must stay within 15% of serial; with cores available it must show
## real speedup — see cmd/benchjson checkScaling). The ns/op budget is
## looser than the byte/alloc budgets: B/op and allocs/op are deterministic
## so 10% catches any real leak, while wall time on a shared single-core
## box still spreads ~15% even best-of-3 — 25% is above the noise floor
## yet far below the 2x-class regressions this gate exists to catch. The
## wire benchmarks and the kernels' loss-gradient rows are allocation-free,
## and a zero baseline is held at zero.
## The snapshot benchmark is gated on B/op and allocs/op alone: its time is an
## fsync, which measures the host's disk, so its ns/op is printed, not gated.
benchdiff:
	$(GO) test $(BENCHFLAGS) ./internal/core \
		| $(GO) run ./cmd/benchjson -baseline BENCH_core.json -max-regress 0.25 \
			-max-bytes-regress 0.10 -max-alloc-regress 0.10 -check-scaling
	$(GO) test $(WIREBENCHFLAGS) ./internal/transport \
		| $(GO) run ./cmd/benchjson -baseline BENCH_wire.json -max-regress 0.25 \
			-max-bytes-regress 0.10 -max-alloc-regress 0.10
	$(GO) test $(WIREBENCHFLAGS) ./internal/checkpoint \
		| $(GO) run ./cmd/benchjson -baseline BENCH_ckpt.json -max-regress -1 \
			-max-bytes-regress 0.10 -max-alloc-regress 0.10
	$(KERNELBENCH) \
		| $(GO) run ./cmd/benchjson -baseline BENCH_kernels.json -max-regress 0.25 \
			-max-bytes-regress 0.10 -max-alloc-regress 0.10

## benchall: every benchmark in the repo (experiment tables, kernels, nn).
benchall:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

## churn: the dynamic-membership study — static hierarchy vs the seeded
## churn trace (late join + permanent leave + re-tiering) under each
## gammaEdge migration policy, with accuracy and traffic side by side.
churn:
	$(GO) run ./cmd/hieradmo -exp churn

clean:
	$(GO) clean ./...

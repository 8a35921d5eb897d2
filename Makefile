# Developer entry points. The tier-1 gate (what CI and the roadmap require)
# is `make check`; `make race` runs the concurrency-heavy packages under the
# race detector with widened timing windows (see internal/cluster/race_on_test.go).

GO ?= go

.PHONY: build portable test vet lint check allocpins race fuzz recover bench benchdiff benchall churn clean

build:
	$(GO) build ./...

## portable: internal/tensor (the GEMMs, Vector.Scale), internal/core
## (Leaf.Step, the tier mean) and internal/nn (the fused ReLU's rectify and
## gate, the conv bias sums, the max-pool scan and scatter) have assembly
## bodies on amd64 only. Everywhere else runs the pure-Go ones, so they must
## keep compiling and vetting on arm64 and s390x — each package needs its
## !amd64 dispatch file (stock go
## vet's asmdecl, part of lint, already holds the amd64 frames to their Go
## declarations). Likewise the wire codec and the snapshot encoder copy a
## vector's memory only on little-endian hosts; the value-by-value path a
## big-endian host runs is held to compile and vet on s390x. And no fused
## multiply-add may appear in any assembly file of the module: the Go
## compiler does not fuse on amd64, so the unfused pair is what the portable
## bodies compute and what every golden file was recorded with.
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/nn ./internal/core
	GOARCH=s390x $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/transport ./internal/checkpoint ./internal/vecbytes \
		./internal/tensor ./internal/nn ./internal/core
	@! git ls-files -z -co --exclude-standard -- '*.s' | xargs -0 grep -nE 'VFN?MADD' || \
		{ echo "fused multiply-add in assembly"; exit 1; }

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## lint: formatting plus the two static-analysis gates — stock go vet and
## the repo's own flvet suite (determinism, map-order, goroutine-policy,
## wire-allocation, nil-sink and checkpoint-completeness invariants; see
## DESIGN.md §11). A whole-module flvet run takes about a second.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/flvet ./...

## check: the tier-1 gate — build (and the portable build, see above), lint
## (gofmt + go vet + flvet), the full test suite, the allocation pins
## repeated, the crash-recovery integration pass, the race-detector sweep,
## and the perf gate against the committed benchmark baseline.
check: build portable lint test allocpins recover race benchdiff

## allocpins: the four allocation pins, ten runs each. A received message's
## buffer comes from its network's one free list, so the frames a run
## allocates are the most it has leased at once, which goroutine scheduling
## can move; should that ever exceed a pin's allowance, ten runs make it fail
## here rather than flake later.
allocpins:
	$(GO) test -count=10 -run '^(TestWireSteadyStateAllocs|TestTCPConnectionFootprint)$$' ./internal/transport/
	$(GO) test -count=10 -run '^(TestClusterRoundAllocs|TestClusterCkptRoundAllocs)$$' ./internal/cluster/

## race: race-detect the distributed runtime, transport layers, checkpoint
## snapshot/restore, telemetry instruments (scraped concurrently with
## writers), the parallel training paths (core/baseline worker pools,
## the nn workspace free list), the resolved tree (every node goroutine of a
## cluster run reads its lazily minted ID table and its hand-offs), and the
## experiments, which run cluster.Run and sweep cells concurrently, with the
## timing simulation and the δ estimator they call.
race:
	$(GO) test -race -count=1 ./internal/cluster/... ./internal/transport/... \
		./internal/checkpoint/... ./internal/parallel/... ./internal/core/... \
		./internal/baseline/... ./internal/fl/... ./internal/nn/... \
		./internal/tensor/... ./internal/robust/... ./internal/topology/... \
		./internal/telemetry/... ./internal/membership/... ./cmd/tracecat/... \
		./internal/experiment/... ./internal/theory/... ./internal/netsim/...

## fuzz: short-budget fuzzing of the byte-boundary decoders — the
## checkpoint snapshot reader, the telemetry JSONL trace reader, and the
## tracecat line parser — plus the conv-kernel equivalence target, which
## asserts the im2col/GEMM forward+backward stays bitwise identical to the
## retained naive reference on fuzzer-chosen shapes and data, and the
## dense-kernel equivalence target, which holds the matrix-vector and rank-1
## shapes (GEMMBias at n = 1, GEMMAddTransB at k = 1) to their scalar
## definitions the same way, and the element-wise target, which holds the
## vector bodies of Leaf.Step, the tier mean and Vector.Scale to their Go
## loops on fuzzer-chosen lengths, offsets, cohorts and data, and the block
## weight-gradient target, which holds
## GEMMAdd (entry point and portable body) to the rank-1 updates it stands for,
## and the vector-kernel equivalence target, which
## holds the dispatching conv GEMMs (the AVX2 assembly, where the CPU has it)
## to their portable bodies, and the robust-aggregation targets, which
## assert median/trimmed-mean reject (never propagate) non-finite reporter
## values on fuzzer-chosen cohorts, and the -attack-plan parser, which must
## yield a plan or an error (never a panic, never an empty plan), every
## accepted plan's canonical entries re-parsing to the same Signature,
## and the -aggregator parser, which must yield a spec pair or an error
## (never a panic), every accepted spec validating and the pair spelled out
## as edge=<kind>,cloud=<kind> re-parsing to itself,
## and the -churn-plan parsers (inline spec and trace), which must yield a
## plan or an error with every round at least 1, every accepted plan's
## trace re-parsing to the same Signature and resolving against a small
## tree into a schedule or an error, and the topology-spec parser, which must yield a tree or a typed error
## (never a panic) on arbitrary spec strings, with String/Parse
## round-tripping every accepted tree and every accepted spec resolving into
## the topology.Tree both engines run (children and parents inverting, the
## leaf order covering every leaf once, each weight the integer ratio of a
## child's subtree size over its node's) whose flat view is a two-level
## tree keeping every leaf's ID or a typed refusal, and the wire-frame decoder, which
## must yield a Message or ErrFrame / a truncation error without allocating
## past its caps, every accepted frame re-encoding to the bytes it came from,
## and the cluster's node machines, on a static and a churned tree, which
## must take any sequence of messages and expiries without a panic, fail only
## with a typed error or one naming the sender, answer one sequence with one
## outbox sequence, and redistribute every round as the tree's hand-off says.
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
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzVectorBodies -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzGEMMAddEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzVectorKernelEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/robust/ -run '^$$' -fuzz FuzzMedianAggregate -fuzztime $(FUZZTIME)
	$(GO) test ./internal/robust/ -run '^$$' -fuzz FuzzTrimmedMean -fuzztime $(FUZZTIME)
	$(GO) test ./internal/robust/ -run '^$$' -fuzz FuzzParsePlan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/robust/ -run '^$$' -fuzz FuzzParseTierSpecs -fuzztime $(FUZZTIME)
	$(GO) test ./internal/membership/ -run '^$$' -fuzz FuzzParseChurnPlan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/topology/ -run '^$$' -fuzz FuzzParseTopology -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis/ -run '^$$' -fuzz FuzzAllowDirective -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzTierMachine -fuzztime $(FUZZTIME)

## recover: the crash-recovery integration suite — checkpoint format and
## corruption handling, bit-identical simulation resume, cluster
## interrupt/restart/rejoin (TestClusterInterruptResume* also resumes the
## tier fault ledgers), and the process-level SIGKILL/SIGTERM tests.
recover:
	$(GO) test -count=1 ./internal/checkpoint/... || exit 1
	$(GO) test -count=1 ./internal/core/... ./internal/baseline/... -run 'Resume' || exit 1
	$(GO) test -count=1 ./internal/cluster/... \
		-run 'TestCluster(InterruptResume|CrashRestartMatchesParticipation|WorkerRestartRejoins)|TestTreeRestartSupervisor' || exit 1
	$(GO) test -count=1 ./cmd/flcluster/ -run 'TestMultiProcessKillRestart|TestSigterm|TestDoubleSignal'

## bench: run the core, wire, snapshot and kernel benchmarks with -benchmem
## and record the perf trajectory (ns/op, B/op, allocs/op, worker-pool size)
## in BENCH_core.json, BENCH_wire.json (frame encode/decode and the memory
## and TCP-loopback round trip at the leaf-report shape, 4 x 15380 values),
## BENCH_ckpt.json (one node's Registry.Save into a real directory, and
## checkpoint.Read of that snapshot from memory, at the leaf and tier shapes,
## 4 and 12 x 15380 values) and BENCH_kernels.json
## (internal/tensor: the two conv GEMMs at the CNN's two layer shapes and the
## Dense weight gradient at the sync model's, in GFLOP/s, and Vector.Scale at the
## sync model's dimension; internal/nn: one forward and one loss-gradient per architecture
## family, the single-Dense classifiers at the shapes the runs train,
## batch 8, the CNN's second conv layer's backward pass on sparse output
## gradients, and the CNN's element-wise passes alone at its two layer shapes,
## 8x14x14 and 16x7x7: max-pool forward and backward, the fused ReLU's rectify
## and gate, and the conv bias sums).
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
# need a run long enough to be past that. Vector.Scale at the sync model's
# dimension is a few microseconds too, so it rides along.
GEMMBENCHFLAGS = -bench='GEMM|VectorScale' -benchmem -benchtime=20000x -count=3 -run=^$$
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
## B/op or allocs/op regressed beyond its budget against the committed
## BENCH_*.json, or when a workers=N benchmark stops holding its own against
## workers=1 (core-count-aware: on a single-core host the pool must stay
## within 15% of serial; with cores available it must show real speedup —
## see cmd/benchjson checkScaling). ns/op is printed against the baseline,
## never gated: B/op and allocs/op repeat run to run, so 10% catches any real
## leak, while best-of-3 wall time on a shared host spread past every budget
## that could still catch a regression. The wire benchmarks and the kernels'
## loss-gradient rows are allocation-free, and a zero baseline is held at
## zero.
benchdiff:
	$(GO) test $(BENCHFLAGS) ./internal/core \
		| $(GO) run ./cmd/benchjson -baseline BENCH_core.json \
			-max-bytes-regress 0.10 -max-alloc-regress 0.10 -check-scaling
	$(GO) test $(WIREBENCHFLAGS) ./internal/transport \
		| $(GO) run ./cmd/benchjson -baseline BENCH_wire.json \
			-max-bytes-regress 0.10 -max-alloc-regress 0.10
	$(GO) test $(WIREBENCHFLAGS) ./internal/checkpoint \
		| $(GO) run ./cmd/benchjson -baseline BENCH_ckpt.json \
			-max-bytes-regress 0.10 -max-alloc-regress 0.10
	$(KERNELBENCH) \
		| $(GO) run ./cmd/benchjson -baseline BENCH_kernels.json \
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

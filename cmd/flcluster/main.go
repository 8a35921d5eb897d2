// Command flcluster runs HierAdMo as an actual distributed protocol: one
// node per worker, edge, and cloud, exchanging models and momenta over an
// in-memory hub or real TCP sockets — every node in this process, or, with
// -node, one node per process. The distributed run is bit-identical to the
// in-process simulation (same batch streams, same aggregation order), which
// the command verifies when -verify is set.
//
// Usage:
//
//	flcluster -transport tcp -dataset mnist -model cnn
//	flcluster -transport memory -verify -save-result out.json -save-curve out.csv
//
// Fault-tolerance flags turn the run into a deterministic chaos experiment:
//
//	flcluster -crash worker-0-1@40 -min-quorum 0.5 -straggler-deadline 200ms
//	flcluster -drop-rate 0.03 -fault-seed 11 -min-quorum 0.5 \
//	    -straggler-deadline 300ms -recv-timeout 3s
//
// The run then degrades gracefully (quorum aggregation with renormalized
// weights) and prints a fault report instead of dying on the first lost
// message. Tolerance is bounded: a run whose losses exceed what the quorum
// and the one-sync staleness budget can absorb (e.g. heavy sustained loss on
// a topology with no quorum margin) still fails fast, with every node's
// error joined.
//
// Crash recovery: with -checkpoint-dir every node snapshots its state after
// each completed round. SIGINT/SIGTERM stops the run gracefully (exit code
// 3); rerunning with the same flags plus -resume continues from the
// snapshots and finishes with results bit-identical to an uninterrupted run.
// A second signal aborts immediately (exit code 4).
//
//	flcluster -checkpoint-dir ckpt            # ctrl-C mid-run → exit 3
//	flcluster -checkpoint-dir ckpt -resume    # picks up where it stopped
//
// Dynamic membership: -churn-plan replays a deterministic join/leave trace
// (a trace file, or an inline spec) and -retier-every re-clusters workers
// across edges every k cloud syncs; -migration picks the γℓ carry rule on
// cohort change. The whole trajectory is a pure function of the flags, so
// a churn run is bit-identical across reruns and transports:
//
//	flcluster -churn-plan "join:worker-0-1@3,leave:worker-1-0@9" -retier-every 2
//
// Byzantine robustness: -attack-plan injects deterministic adversarial
// reports at the worker boundary (sign-flip, scaling, seeded noise, stale
// replay) and -aggregator swaps the tier aggregation rule for a robust one
// (median, trimmed mean, norm-clipping, cosine-outlier filter), per tier
// if desired. The run prints an attack report with injected and rejected
// counts; both knobs are pure functions of the flags, so Byzantine runs
// replay bit-identically:
//
//	flcluster -attack-plan "signflip:worker-0-1@1" -aggregator median
//	flcluster -attack-plan "noise:worker-1-0@2-6=0.5" \
//	    -aggregator edge=trimmed,cloud=mean -trim 0.2
//
// N-tier topologies: by default the aggregation tree is the workload's
// cloud/edge/worker hierarchy; -topology runs the same runtime over an
// arbitrary tree — depth, fan-out, per-level sync periods τℓ, and per-level
// aggregation rules all come from the spec; the training leaves regroup the
// workload's worker shards in order. Every flag above composes with it
// (-aggregator sets the default rule of the level above the workers and of
// the root; churn plans name leaves worker-<parent>-<position>), and -verify
// runs the in-process simulation on the same tree:
//
//	flcluster -model logistic \
//	    -topology "cloud:tau=20/region*2:tau=10,agg=median/edge*2:tau=5/worker"
//	flcluster -model logistic -verify \
//	    -topology "cloud:tau=20/region*2:tau=10/edge*2:tau=5/worker"
//
// Multi-process deployment: -node ID runs only that node of the tree, on the
// TCP address a shared JSON registry gives its ID. The IDs are the tree's
// own (cloud / edge-ℓ / worker-ℓ-i, or the -topology spec's name-index IDs).
// Every process regenerates the identical synthetic workload from the shared
// flags, so no training data crosses the wire, and the root process prints
// the result. Every other flag must match across the processes; the flags
// that wrap the in-process network (-transport, -drop-rate, -max-delay,
// -crash, -restart-after) are refused. A 4-worker, 2-edge deployment:
//
//	cat > reg.json <<'EOF'
//	{"cloud":"127.0.0.1:7000",
//	 "edge-0":"127.0.0.1:7001","edge-1":"127.0.0.1:7002",
//	 "worker-0-0":"127.0.0.1:7010","worker-0-1":"127.0.0.1:7011",
//	 "worker-1-0":"127.0.0.1:7012","worker-1-1":"127.0.0.1:7013"}
//	EOF
//	for id in worker-0-0 worker-0-1 worker-1-0 worker-1-1 edge-0 edge-1; do
//	    flcluster -node $id -registry reg.json -model logistic &
//	done
//	flcluster -node cloud -registry reg.json -model logistic   # prints the result
//
// A node killed mid-run is relaunched with the same flags plus -resume when
// the deployment runs with -checkpoint-dir (and a quorum to ride out the
// outage). A late joiner of a churn plan is started at any time with -join;
// it waits until its edge admits it at the planned round:
//
//	flcluster -node worker-0-1 -registry reg.json -model logistic \
//	    -churn-plan "join:worker-0-1@3" -join
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"hieradmo"
	"hieradmo/internal/cluster"
	"hieradmo/internal/core"
	"hieradmo/internal/experiment"
	"hieradmo/internal/membership"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

func main() {
	os.Exit(mainExit(os.Args[1:], installInterrupt("flcluster")))
}

// mainExit runs the cluster and maps the outcome to the process exit code:
// 0 success, 1 failure, 3 gracefully interrupted (state checkpointed when
// -checkpoint-dir is set; rerun with -resume to continue).
func mainExit(args []string, interrupt <-chan struct{}) int {
	if err := run(args, interrupt); err != nil {
		fmt.Fprintln(os.Stderr, "flcluster:", err)
		if errors.Is(err, cluster.ErrInterrupted) {
			return 3
		}
		return 1
	}
	return 0
}

// installInterrupt returns a channel closed on the first SIGINT/SIGTERM,
// requesting a graceful checkpoint-and-stop. A second signal aborts the
// process immediately with exit code 4.
func installInterrupt(name string) <-chan struct{} {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	interrupt := make(chan struct{})
	//flvet:allow goexec -- signal watcher must outlive the run loop; parallel.ForEach is for bounded fan-out, not daemons
	go func() {
		<-sigs
		fmt.Fprintf(os.Stderr, "%s: shutdown requested, stopping at the next snapshot point (signal again to abort)\n", name)
		close(interrupt)
		<-sigs
		fmt.Fprintf(os.Stderr, "%s: aborted\n", name)
		os.Exit(4)
	}()
	return interrupt
}

// inProcessFlags wrap the in-process network, which a -node run does not
// have.
var inProcessFlags = []string{"transport", "drop-rate", "max-delay", "crash", "restart-after"}

func run(args []string, interrupt <-chan struct{}) error {
	fs := flag.NewFlagSet("flcluster", flag.ContinueOnError)
	var (
		transportName = fs.String("transport", "memory", `"memory" or "tcp" (loopback sockets)`)
		datasetName   = fs.String("dataset", "mnist", "dataset: mnist|cifar10|imagenet|har")
		modelName     = fs.String("model", "cnn", "model: linear|logistic|cnn|cnn-gap|vgg-mini|resnet-mini")
		classes       = fs.Int("classes", 0, "x-class non-IID assignment (0 = IID)")
		reduced       = fs.Bool("reduced", false, "run HierAdMo-R (fixed gammaEdge) instead of adaptive")
		verify        = fs.Bool("verify", false, "also run the in-process simulation on the same tree (the workload's, or -topology's) and compare")
		scaleName     = fs.String("scale", "bench", `"bench" or "default"`)
		seed          = fs.Uint64("seed", 0, "override seed")
		saveResult    = fs.String("save-result", "", "write the run result as JSON to this path")
		saveCurve     = fs.String("save-curve", "", "write the accuracy curve as CSV to this path")

		nodeID       = fs.String("node", "", "run only this node of the tree (cloud, edge-ℓ, worker-ℓ-i, or a -topology ID) on its -registry address; every other flag must match across the processes")
		registryPath = fs.String("registry", "", "path to the JSON node-ID → host:port registry of a -node deployment")
		join         = fs.Bool("join", false, "require that -churn-plan schedules this -node worker as a late joiner (it then waits to be admitted mid-run)")

		dropRate  = fs.Float64("drop-rate", 0, "inject message loss with this probability (0 disables)")
		maxDelay  = fs.Duration("max-delay", 0, "inject a uniform per-message delay up to this duration")
		faultSeed = fs.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		crash     = fs.String("crash", "", `crash nodes at protocol rounds, e.g. "worker-0-1@40,edge-1@80"`)
		restart   = fs.String("restart-after", "", `revive crashed workers after this many rounds, e.g. "worker-0-1@8" (needs -crash, -min-quorum and -checkpoint-dir)`)
		minQuorum = fs.Float64("min-quorum", 0, "fraction of reporters an aggregation needs (0 or 1 = strict full cohort)")
		straggler = fs.Duration("straggler-deadline", 0, "how long an aggregation waits for the full cohort before proceeding with a quorum")
		recvTO    = fs.Duration("recv-timeout", 0, "receive timeout per blocking wait (default 60s)")

		checkpointDir = fs.String("checkpoint-dir", "", "snapshot every node's state into this directory after each completed round (enables crash recovery)")
		resume        = fs.Bool("resume", false, "reload the newest snapshots from -checkpoint-dir and continue the interrupted run")

		attackSpec = fs.String("attack-plan", "", `Byzantine attack spec like "signflip:worker-0-1@1,noise:worker-1-0@2-6=0.5" (kinds: signflip|scale|noise|replay)`)
		attackSeed = fs.Uint64("attack-seed", 1, "seed for the deterministic noise-attack draws")
		aggregator = fs.String("aggregator", "mean", `aggregation rule (mean|median|trimmed|clip|cosine), or per tier like "edge=median,cloud=mean"`)
		trim       = fs.Float64("trim", 0.2, "per-tail trim fraction for -aggregator trimmed, in [0, 0.5)")
		clipNorm   = fs.Float64("clip", 10, "max L2 deviation norm for -aggregator clip")
		cosMin     = fs.Float64("cos-min", 0, "minimum cosine against the cohort's median deviation for -aggregator cosine, in [-1, 1]")

		topologySpec = fs.String("topology", "", `N-tier aggregation tree spec like "cloud:tau=20/region*2:tau=10,agg=median/edge*2:tau=5/worker" (empty = the workload's cloud/edge/worker hierarchy; the tree's leaf count must equal the workload's workers; -verify runs the simulation on the same tree, mean aggregation only)`)

		churnSpec   = fs.String("churn-plan", "", `churn trace file, or inline spec like "join:worker-0-1@3,leave:worker-1-0@9"`)
		retierEvery = fs.Int("retier-every", 0, "re-tier workers across edges every this many cloud syncs (0 disables)")
		migration   = fs.String("migration", "zero", "gammaEdge migration policy on cohort change: zero|carry|rescale")

		traceOut    = fs.String("trace-out", "", "write a JSONL event trace (one event per line) to this path")
		metricsAddr = fs.String("metrics-addr", "", `serve Prometheus /metrics and /debug/pprof on this address (e.g. "127.0.0.1:9090"; ":0" picks a port)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var registry map[string]string
	switch {
	case *nodeID != "":
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range inProcessFlags {
			if set[name] {
				return fmt.Errorf("-%s wraps the in-process network and does not apply with -node", name)
			}
		}
		var err error
		if registry, err = loadRegistry(*registryPath); err != nil {
			return err
		}
	case *join:
		return fmt.Errorf("-join needs -node naming the late-joining worker")
	case *registryPath != "":
		return fmt.Errorf("-registry needs -node")
	}
	crashes, err := parseCrashSpec(*crash)
	if err != nil {
		return err
	}
	restarts, err := parseCrashSpec(*restart)
	if err != nil {
		return err
	}
	for node := range restarts {
		if _, ok := crashes[node]; !ok {
			return fmt.Errorf("-restart-after %s needs a matching -crash entry", node)
		}
	}
	if *verify && (*dropRate > 0 || len(crashes) > 0) {
		return fmt.Errorf("-verify requires a fault-free run: the in-process simulation does not model message drops or crashes yet")
	}
	churnPlan, err := loadChurnPlan(*churnSpec)
	if err != nil {
		return err
	}
	if *join {
		if err := checkJoin(*nodeID, churnPlan); err != nil {
			return err
		}
	}
	migrate, err := membership.ParseMigrationPolicy(*migration)
	if err != nil {
		return err
	}
	if *verify && (churnPlan != nil || *retierEvery > 0) {
		return fmt.Errorf("-verify requires a static hierarchy: the in-process simulation does not model dynamic membership yet")
	}
	attackPlan, err := robust.ParsePlan(*attackSpec, *attackSeed)
	if err != nil {
		return err
	}
	edgeAgg, cloudAgg, err := robust.ParseTierSpecs(*aggregator, *trim, *clipNorm, *cosMin)
	if err != nil {
		return err
	}
	var topo *topology.Topology
	robustLevel := edgeAgg.Robust() || cloudAgg.Robust()
	if *topologySpec != "" {
		if topo, err = topology.Parse(*topologySpec); err != nil {
			return err
		}
		for _, lv := range topo.Levels {
			robustLevel = robustLevel || lv.Agg.Robust()
		}
	}
	if *verify && (attackPlan != nil || robustLevel) {
		return fmt.Errorf("-verify requires an undefended honest run: the in-process simulation does not model attackers or robust aggregation yet")
	}

	var s experiment.Scale
	switch *scaleName {
	case "bench":
		s = experiment.BenchScale()
	case "default":
		s = experiment.DefaultScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *seed > 0 {
		s.Seed = *seed
	}
	cfg, err := experiment.BuildConfig(experiment.Workload{
		Dataset:          *datasetName,
		Model:            *modelName,
		ClassesPerWorker: *classes,
	}, s)
	if err != nil {
		return err
	}
	sink, boundAddr, stopTelemetry, err := telemetry.Setup(*traceOut, *metricsAddr)
	if err != nil {
		return err
	}
	defer stopTelemetry()
	cfg.Telemetry = sink
	if boundAddr != "" {
		fmt.Printf("telemetry: serving /metrics and /debug/pprof on http://%s\n", boundAddr)
	}

	opts := cluster.Options{
		Adaptive:          !*reduced,
		MinQuorum:         *minQuorum,
		StragglerDeadline: *straggler,
		RecvTimeout:       *recvTO,
		CheckpointDir:     *checkpointDir,
		Resume:            *resume,
		Interrupt:         interrupt,
		ChurnPlan:         churnPlan,
		RetierEvery:       *retierEvery,
		Migration:         migrate,
		AttackPlan:        attackPlan,
		EdgeAggregator:    edgeAgg,
		CloudAggregator:   cloudAgg,
		Topology:          topo,
	}
	var res *hieradmo.Result
	if *nodeID != "" {
		ep, err := transport.ListenStatic(*nodeID, registry)
		if err != nil {
			return err
		}
		defer ep.Close()
		// Mirror the endpoint's send retries onto the sink, as Run does for
		// an in-process network.
		if ts, ok := ep.(transport.TelemetrySetter); ok {
			ts.SetTelemetry(sink)
		}
		// Only the root returns a result.
		if res, err = cluster.RunNode(cfg, ep, opts); err != nil || res == nil {
			return err
		}
	} else {
		var net cluster.Network
		switch *transportName {
		case "memory":
			net = transport.NewMemoryNetwork()
		case "tcp":
			net = transport.NewTCPNetwork()
		default:
			return fmt.Errorf("unknown transport %q", *transportName)
		}
		if *dropRate > 0 || *maxDelay > 0 || len(crashes) > 0 {
			net = transport.NewFaultyNetwork(net, transport.FaultPlan{
				Seed:               *faultSeed,
				DropRate:           *dropRate,
				MaxDelay:           *maxDelay,
				CrashAtRound:       crashes,
				RestartAfterRounds: restarts,
			})
		}
		fmt.Printf("distributed HierAdMo over %s: %d workers, %d edges, tau=%d pi=%d T=%d\n",
			*transportName, cfg.NumWorkers(), cfg.NumEdges(), cfg.Tau, cfg.Pi, cfg.T)
		if topo != nil {
			fmt.Printf("topology: %s (depth %d, %d leaves)\n", topo, topo.Depth(), topo.NumLeaves())
		}
		if res, err = cluster.Run(cfg, net, opts); err != nil {
			return err
		}
	}
	fmt.Println(res)
	if res.FaultReport.Any() {
		fmt.Println(res.FaultReport)
	}
	if res.Membership != nil {
		fmt.Println(res.Membership)
	}
	if res.AttackReport != nil {
		fmt.Println(res.AttackReport)
	}

	if *verify {
		alg := core.New()
		if *reduced {
			alg = core.NewReduced()
		}
		// The simulation runs the tree the cluster ran: the -topology spec's,
		// or the workload's own.
		tree, err := cfg.Tree(topo)
		if err != nil {
			return err
		}
		sim, err := alg.RunTree(cfg, tree)
		if err != nil {
			return fmt.Errorf("verification run: %w", err)
		}
		if sim.FinalAcc == res.FinalAcc {
			fmt.Printf("verified: distributed final accuracy %.4f matches the in-process simulation exactly\n", res.FinalAcc)
		} else {
			return fmt.Errorf("verification failed: distributed %.6f vs simulation %.6f",
				res.FinalAcc, sim.FinalAcc)
		}
	}
	if *saveResult != "" {
		if err := hieradmo.SaveResult(*saveResult, res); err != nil {
			return err
		}
		fmt.Println("result written to", *saveResult)
	}
	if *saveCurve != "" {
		f, err := os.Create(*saveCurve)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := hieradmo.WriteCurveCSV(f, res); err != nil {
			return err
		}
		fmt.Println("curve written to", *saveCurve)
	}
	return nil
}

// loadRegistry reads a -node deployment's node-ID → host:port registry.
func loadRegistry(path string) (map[string]string, error) {
	if path == "" {
		return nil, fmt.Errorf("-node needs -registry")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read registry: %w", err)
	}
	var registry map[string]string
	if err := json.Unmarshal(raw, &registry); err != nil {
		return nil, fmt.Errorf("parse registry %s: %w", path, err)
	}
	return registry, nil
}

// checkJoin holds -join to its promise: the node is a worker-ℓ-i the churn
// plan admits after round 1.
func checkJoin(id string, plan *membership.Plan) error {
	ref, err := membership.ParseNodeID(id)
	if err != nil {
		return fmt.Errorf("-join only applies to a worker-ℓ-i node, not %q", id)
	}
	if plan == nil {
		return fmt.Errorf("-join needs a -churn-plan that schedules %s's entry", id)
	}
	for _, ev := range plan.Events {
		if ev.Action == membership.ActionJoin && ev.Worker == ref && ev.Round > 1 {
			return nil
		}
	}
	return fmt.Errorf("-join: the churn plan schedules no late join for %s", id)
}

// loadChurnPlan resolves the -churn-plan flag: a path to a churn trace
// file when one exists at that path, otherwise an inline event spec. Empty
// means no churn (nil plan).
func loadChurnPlan(spec string) (*membership.Plan, error) {
	if spec == "" {
		return nil, nil
	}
	if f, err := os.Open(spec); err == nil {
		defer f.Close()
		plan, err := membership.ParseTrace(f)
		if err != nil {
			return nil, fmt.Errorf("churn trace %s: %w", spec, err)
		}
		return &plan, nil
	}
	plan, err := membership.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return &plan, nil
}

// parseCrashSpec parses a comma-separated "node@round" list, e.g.
// "worker-0-1@40,edge-1@80", into a FaultPlan crash map.
func parseCrashSpec(spec string) (map[string]int, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		node, roundStr, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok || node == "" {
			return nil, fmt.Errorf("malformed crash spec %q (want node@round)", part)
		}
		round, err := strconv.Atoi(roundStr)
		if err != nil || round < 0 {
			return nil, fmt.Errorf("malformed crash round in %q", part)
		}
		out[node] = round
	}
	return out, nil
}

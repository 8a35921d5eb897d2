// Command flnode runs ONE node of a multi-process HierAdMo deployment,
// addressed through a shared JSON registry mapping node IDs to host:port.
// Every node is the same level-parametric runtime node; -role cloud, edge
// and worker are shorthands for its (level, index) address in the
// workload's cloud/edge/worker hierarchy, -role tier names an address in a
// -topology tree directly. Every process regenerates the identical
// synthetic workload deterministically from the shared seed, so no training
// data crosses the wire — only models, momenta, and interval accumulators,
// exactly as Algorithm 1 prescribes.
//
// A 4-worker, 2-edge deployment on one machine:
//
//	cat > reg.json <<'EOF'
//	{"cloud":"127.0.0.1:7000",
//	 "edge-0":"127.0.0.1:7001","edge-1":"127.0.0.1:7002",
//	 "worker-0-0":"127.0.0.1:7010","worker-0-1":"127.0.0.1:7011",
//	 "worker-1-0":"127.0.0.1:7012","worker-1-1":"127.0.0.1:7013"}
//	EOF
//	flnode -role worker -edge 0 -index 0 -registry reg.json &
//	flnode -role worker -edge 0 -index 1 -registry reg.json &
//	flnode -role worker -edge 1 -index 0 -registry reg.json &
//	flnode -role worker -edge 1 -index 1 -registry reg.json &
//	flnode -role edge -edge 0 -registry reg.json &
//	flnode -role edge -edge 1 -registry reg.json &
//	flnode -role cloud -registry reg.json          # prints the result
//
// With -checkpoint-dir every node snapshots its state after each completed
// protocol unit, so a crashed or SIGKILLed node can be relaunched with the
// same arguments plus -resume: it reloads its newest snapshot, replays at
// most one interval of local compute, and rejoins the protocol. SIGINT or
// SIGTERM requests a graceful shutdown — the node stops at its next
// interruptible point and exits with code 3 (resumable); a second signal
// aborts immediately with code 4.
//
// Dynamic membership: give every node the same -churn-plan (and
// -retier-every / -migration) and the deployment replays the trace in
// lockstep. A scheduled late joiner is simply started whenever convenient
// with -join — it blocks until its edge admits it at the planned round:
//
//	flnode -role worker -edge 0 -index 1 -registry reg.json \
//	    -churn-plan "join:worker-0-1@3" -join
//
// Byzantine robustness: give every node the same -attack-plan /
// -attack-seed / -aggregator flags and the deployment replays the same
// adversarial scenario the single-process runtime would — attacking
// workers corrupt their own outgoing reports, edges and the cloud apply
// the selected robust rule to whatever arrives.
//
// N-tier topologies: give every node the same -topology spec and launch one
// "tier" role process per tree node, addressed by -level/-index; registry
// keys are the spec's node IDs (name-index). Level 0 prints the result,
// level depth-1 trains a leaf shard. The churn, attack and aggregator flags
// apply to such trees unchanged:
//
//	flnode -role tier -level 0 -index 0 -registry reg.json \
//	    -topology "cloud:tau=20/edge*2:tau=10/worker*2"     # the root
//	flnode -role tier -level 2 -index 3 -registry reg.json \
//	    -topology "cloud:tau=20/edge*2:tau=10/worker*2"     # leaf worker-3
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"hieradmo/internal/cluster"
	"hieradmo/internal/experiment"
	"hieradmo/internal/membership"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

func main() {
	os.Exit(mainExit(os.Args[1:], installInterrupt("flnode")))
}

// mainExit runs the node and maps the outcome to the process exit code:
// 0 success, 1 failure, 3 gracefully interrupted (state checkpointed when
// -checkpoint-dir is set; relaunch with -resume to continue).
func mainExit(args []string, interrupt <-chan struct{}) int {
	if err := run(args, interrupt); err != nil {
		fmt.Fprintln(os.Stderr, "flnode:", err)
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

func run(args []string, interrupt <-chan struct{}) error {
	fs := flag.NewFlagSet("flnode", flag.ContinueOnError)
	var (
		role          = fs.String("role", "", `node role: "cloud", "edge", "worker", or "tier" (-topology deployments)`)
		edgeIdx       = fs.Int("edge", 0, "edge index ℓ (edge and worker roles)")
		workerIdx     = fs.Int("index", 0, "worker index i within the edge (worker role), or node index within the level (tier role)")
		topologySpec  = fs.String("topology", "", `N-tier aggregation tree spec like "cloud:tau=20/edge*2:tau=10/worker*2" (tier role; must match across all nodes)`)
		levelIdx      = fs.Int("level", 0, "tree level of this node, 0 = root (tier role)")
		registryPath  = fs.String("registry", "", "path to the JSON node-ID → host:port registry")
		datasetName   = fs.String("dataset", "mnist", "dataset: mnist|cifar10|imagenet|har")
		modelName     = fs.String("model", "logistic", "model: linear|logistic|cnn|cnn-gap|vgg-mini|resnet-mini")
		classes       = fs.Int("classes", 0, "x-class non-IID assignment (0 = IID)")
		reduced       = fs.Bool("reduced", false, "run HierAdMo-R instead of adaptive HierAdMo")
		scaleName     = fs.String("scale", "bench", `"bench" or "default"`)
		seed          = fs.Uint64("seed", 0, "override seed (must match across all nodes)")
		minQuorum     = fs.Float64("min-quorum", 0, "fraction of reporters an aggregation needs (0 or 1 = strict full cohort)")
		straggler     = fs.Duration("straggler-deadline", 0, "how long an aggregation waits for the full cohort before proceeding with a quorum")
		recvTO        = fs.Duration("recv-timeout", 0, "receive timeout per blocking wait (default 60s)")
		checkpointDir = fs.String("checkpoint-dir", "", "snapshot node state into this directory after every completed round (enables crash recovery)")
		resume        = fs.Bool("resume", false, "reload the newest snapshot from -checkpoint-dir and rejoin the protocol")

		churnSpec   = fs.String("churn-plan", "", `churn trace file, or inline spec like "join:worker-0-1@3,leave:worker-1-0@9" (must match across all nodes)`)
		retierEvery = fs.Int("retier-every", 0, "re-tier workers across edges every this many cloud syncs (0 disables; must match across all nodes)")
		migration   = fs.String("migration", "zero", "gammaEdge migration policy on cohort change: zero|carry|rescale (must match across all nodes)")
		join        = fs.Bool("join", false, "require that the churn plan schedules this worker as a late joiner (worker role; the node then waits to be admitted mid-run)")

		attackSpec = fs.String("attack-plan", "", `Byzantine attack spec like "signflip:worker-0-1@1" (kinds: signflip|scale|noise|replay; must match across all nodes)`)
		attackSeed = fs.Uint64("attack-seed", 1, "seed for the deterministic noise-attack draws (must match across all nodes)")
		aggregator = fs.String("aggregator", "mean", `aggregation rule (mean|median|trimmed|clip|cosine), or per tier like "edge=median,cloud=mean" (must match across all nodes)`)
		trim       = fs.Float64("trim", 0.2, "per-tail trim fraction for -aggregator trimmed, in [0, 0.5) (must match across all nodes)")
		clipNorm   = fs.Float64("clip", 10, "max L2 deviation norm for -aggregator clip (must match across all nodes)")
		cosMin     = fs.Float64("cos-min", 0, "minimum cosine against the cohort's median deviation for -aggregator cosine, in [-1, 1] (must match across all nodes)")

		traceOut    = fs.String("trace-out", "", "write this node's JSONL event trace to this path")
		metricsAddr = fs.String("metrics-addr", "", `serve Prometheus /metrics and /debug/pprof on this address (e.g. "127.0.0.1:9090"; ":0" picks a port)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *registryPath == "" {
		return fmt.Errorf("-registry is required")
	}
	raw, err := os.ReadFile(*registryPath)
	if err != nil {
		return fmt.Errorf("read registry: %w", err)
	}
	var registry map[string]string
	if err := json.Unmarshal(raw, &registry); err != nil {
		return fmt.Errorf("parse registry: %w", err)
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
	if boundAddr != "" {
		fmt.Fprintf(os.Stderr, "flnode: serving /metrics and /debug/pprof on http://%s\n", boundAddr)
	}
	churnPlan, err := loadChurnPlan(*churnSpec)
	if err != nil {
		return err
	}
	migrate, err := membership.ParseMigrationPolicy(*migration)
	if err != nil {
		return err
	}
	if *join {
		if *role != "worker" {
			return fmt.Errorf("-join only applies to the worker role")
		}
		if churnPlan == nil {
			return fmt.Errorf("-join needs a -churn-plan that schedules this worker's entry")
		}
		ref := membership.Ref{Edge: *edgeIdx, Index: *workerIdx}
		scheduled := false
		for _, ev := range churnPlan.Events {
			if ev.Action == membership.ActionJoin && ev.Worker == ref && ev.Round > 1 {
				scheduled = true
			}
		}
		if !scheduled {
			return fmt.Errorf("-join: the churn plan schedules no late join for %s", ref.NodeID())
		}
	}
	attackPlan, err := robust.ParsePlan(*attackSpec, *attackSeed)
	if err != nil {
		return err
	}
	edgeAgg, cloudAgg, err := robust.ParseTierSpecs(*aggregator, *trim, *clipNorm, *cosMin)
	if err != nil {
		return err
	}
	opts := cluster.Options{
		Adaptive:          !*reduced,
		MinQuorum:         *minQuorum,
		StragglerDeadline: *straggler,
		RecvTimeout:       *recvTO,
		CheckpointDir:     *checkpointDir,
		Resume:            *resume,
		Interrupt:         interrupt,
		Telemetry:         sink,
		ChurnPlan:         churnPlan,
		RetierEvery:       *retierEvery,
		Migration:         migrate,
		AttackPlan:        attackPlan,
		EdgeAggregator:    edgeAgg,
		CloudAggregator:   cloudAgg,
	}

	// listen opens this node's endpoint and mirrors its send retries onto
	// the sink (the multi-process counterpart of TCPNetwork.SetTelemetry).
	listen := func(id string) (transport.Endpoint, error) {
		ep, err := transport.ListenStatic(id, registry)
		if err != nil {
			return nil, err
		}
		if ts, ok := ep.(transport.TelemetrySetter); ok {
			ts.SetTelemetry(sink)
		}
		return ep, nil
	}

	// Every role resolves to one (level, index) address in the run's tree
	// and one transport ID; the node itself is the same for all of them.
	level, idx, id := *levelIdx, *workerIdx, ""
	switch {
	case *topologySpec != "":
		if *role != "tier" {
			return fmt.Errorf("-topology deployments use -role tier (got %q)", *role)
		}
		topo, err := topology.Parse(*topologySpec)
		if err != nil {
			return err
		}
		opts.Topology = topo
		if level < 0 || level >= topo.Depth() || idx < 0 || idx >= topo.Width(level) {
			return fmt.Errorf("no node at level %d index %d in topology %q", level, idx, topo)
		}
		id = topo.NodeID(level, idx)
	case *role == "cloud":
		level, idx, id = 0, 0, cluster.CloudID
	case *role == "edge":
		level, idx, id = 1, *edgeIdx, cluster.EdgeID(*edgeIdx)
	case *role == "worker":
		if *edgeIdx < 0 || *edgeIdx >= cfg.NumEdges() || idx < 0 || idx >= len(cfg.Edges[*edgeIdx]) {
			return fmt.Errorf("no worker {%d,%d} in the workload's hierarchy", idx, *edgeIdx)
		}
		// Workers are the tree's last level, in cfg.Edges order.
		level, id = 2, cluster.WorkerID(*edgeIdx, idx)
		for _, edge := range cfg.Edges[:*edgeIdx] {
			idx += len(edge)
		}
	case *role == "tier":
		return fmt.Errorf("-role tier requires -topology")
	default:
		return fmt.Errorf("unknown role %q (want cloud, edge, worker, or tier)", *role)
	}
	ep, err := listen(id)
	if err != nil {
		return err
	}
	defer ep.Close()
	res, err := cluster.RunNode(cfg, level, idx, ep, opts)
	if err != nil || res == nil {
		return err
	}
	fmt.Println(res)
	if res.Membership != nil {
		fmt.Println(res.Membership)
	}
	if res.AttackReport != nil {
		fmt.Println(res.AttackReport)
	}
	return nil
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

package main

import (
	"hieradmo/internal/experiment"
	"hieradmo/internal/transport"
)

// metric is one row of BENCHMARK.json's end_to_end or per_layer list. The
// tables below and that file must agree name for name (the smoke test
// checks it).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees, with the share of the
// parent's median by which each may worsen before a change is a regression.
// The timing bounds are as wide as the host's noise demands: on the 2-vCPU
// sandbox the median of a 10 s run drifts by 5-14 % (inter-quartile, ten
// runs) whatever statistic is taken over its reps, because whole runs land
// in faster or slower minutes of the host. The allocation metrics repeat to
// 0.2 %, so their bounds stay tight.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"samples_per_s", "1/s", higher, 0.25},
	{"round_p50_ms", "ms", lower, 0.25},
	{"time_to_acc_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"alloc_mb_per_round", "MB", lower, 0.05},
	{"allocs_per_round", "count", lower, 0.05},
}

// perLayer lists the single-layer numbers: first the ones read off the
// traced rep and its companion reps, then the layer probes.
var perLayer = []metric{
	{Name: "model.lossgrad_busy_s", Unit: "s", Better: lower},
	{Name: "model.lossgrad_calls", Unit: "count", Better: lower},
	{Name: "model.predict_busy_s", Unit: "s", Better: lower},
	{Name: "model.predict_calls", Unit: "count", Better: lower},
	{Name: "transport.send_busy_s", Unit: "s", Better: lower},
	{Name: "transport.send_calls", Unit: "count", Better: lower},
	{Name: "transport.recv_wait_s", Unit: "s", Better: lower},
	{Name: "transport.recv_calls", Unit: "count", Better: lower},
	{Name: "transport.payload_mb", Unit: "MB", Better: lower},
	{Name: "transport.msgs_per_round", Unit: "count", Better: lower},
	{Name: "payload_kb_per_round", Unit: "kB", Better: lower},
	{Name: "cluster.residual_cpu_s", Unit: "s", Better: lower},
	{Name: "core.residual_cpu_s", Unit: "s", Better: lower},
	{Name: "cluster.round_p95_ms", Unit: "ms", Better: lower},
	{Name: "cluster.round_samples", Unit: "count", Better: higher},
	{Name: "checkpoint.stall_ms_per_round", Unit: "ms", Better: lower},
	{Name: "checkpoint.disk_mb", Unit: "MB", Better: lower},
	{Name: "gc.cycles", Unit: "count", Better: lower},
	{Name: "gc.pause_ms", Unit: "ms", Better: lower},
	{Name: "telemetry.overhead_frac", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
	{Name: "failed_frac", Unit: "ratio", Better: lower},

	{Name: "tensor.gemm_bias_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "tensor.gemm_addtransb_gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "model.cnn_lossgrad_us", Unit: "us", Better: lower},
	{Name: "model.logistic_lossgrad_us", Unit: "us", Better: lower},
	{Name: "model.cnn_predict_us", Unit: "us", Better: lower},
	{Name: "dataset.batch_us", Unit: "us", Better: lower},
	{Name: "core.edge_cosine_us", Unit: "us", Better: lower},
	{Name: "robust.mean_us", Unit: "us", Better: lower},
	{Name: "robust.median_us", Unit: "us", Better: lower},
	{Name: "quant.roundtrip_us", Unit: "us", Better: lower},
	{Name: "transport.memory_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: lower},
	{Name: "checkpoint.read_ms", Unit: "ms", Better: lower},
	{Name: "parallel.foreach_us", Unit: "us", Better: lower},
}

// workload is one closed-loop training run the benchmark repeats: all 8
// leaves, batch 8, built by experiment.BuildConfig at BenchScale from the
// run's seed.
type workload struct {
	Name string
	Why  string

	task experiment.Workload
	// floor is a FinalAcc sanity bound that holds on any seed: over seeds
	// 1..40 the CNN task ends between 0.617 and 0.832 and the sync task at
	// 0.742 or above, so the floors sit well below (chance is 0.10 and 0.05).
	floor float64
	// network builds the transport of one rep; nil runs the in-process
	// simulation (core.New().Run) instead of cluster.Run.
	network func() transport.Network
	// topo is the N-tier spec; empty keeps cluster.Run's default 3-tier
	// runtime, whose result must equal the simulation bit for bit.
	topo string
	// ckpt turns Options.CheckpointDir on (a fresh directory per rep).
	ckpt bool
}

var (
	// cnnTask is compute-bound: 320 iterations of a two-conv CNN, one leaf
	// round every 20.
	cnnTask = experiment.Workload{
		Dataset: "mnist", Model: "cnn", Edges: []int{4, 4},
		ClassesPerWorker: 3, Tau: 20, Pi: 2, T: 320,
	}
	// syncTask is communication-bound: a cheap logistic gradient over a
	// 15380-parameter model, one leaf round every 2 iterations.
	syncTask = experiment.Workload{
		Dataset: "imagenet", Model: "logistic", Edges: []int{4, 4},
		ClassesPerWorker: 5, Tau: 2, Pi: 2, T: 240,
	}
)

const (
	cnnFloor  = 0.50
	syncFloor = 0.60
	tree4Spec = "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2"
)

func tcpNetwork() transport.Network    { return transport.NewTCPNetwork() }
func memoryNetwork() transport.Network { return transport.NewMemoryNetwork() }

var workloads = []workload{
	{
		Name:  "sim_cnn",
		Why:   "in-process simulation of the CNN task: kernels do all the work and transport, cluster and checkpoint none, so a GEMM or pool gain must show here and a wire gain must not",
		task:  cnnTask,
		floor: cnnFloor,
	},
	{
		Name:    "cluster_tcp_cnn",
		Why:     "the same CNN config through cluster.Run over TCP: the headline distributed time-to-accuracy, compute-bound, so runtime overhead is the gap to sim_cnn",
		task:    cnnTask,
		floor:   cnnFloor,
		network: tcpNetwork,
	},
	{
		Name:    "cluster_tcp_sync",
		Why:     "logistic dim 15380 with a leaf round every 2 iterations over TCP: the gob codec and the 3-tier runtime dominate the cheap gradient",
		task:    syncTask,
		floor:   syncFloor,
		network: tcpNetwork,
	},
	{
		Name:    "cluster_tcp_ckpt",
		Why:     "cluster_tcp_sync with per-node checkpointing on: snapshot writes become the top layer, so a messaging change that slows snapshots, or the reverse, shows",
		task:    syncTask,
		floor:   syncFloor,
		network: tcpNetwork,
		ckpt:    true,
	},
	{
		Name:    "tree4_mem_sync",
		Why:     "the sync config on a 4-level tree over the memory transport: the N-tier runtime and deep-clone delivery, no gob, so a codec gain must not move it and a tier-runtime gain must",
		task:    syncTask,
		floor:   syncFloor,
		network: memoryNetwork,
		topo:    tree4Spec,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Package netsim reproduces the paper's trace-driven simulation (§V-D): it
// models per-iteration compute delays of heterogeneous worker devices,
// latency/bandwidth link delays, and the synchronization structure of
// aggregation trees of any depth (SimulateTree) — the paper's three-tier
// layout, and the two-tier one as a tree's flat view (topology.Tree.Flat) —
// then replays a training accuracy curve onto the simulated timeline to
// obtain wall-clock time-to-accuracy.
//
// The device and link profiles mirror the structure of the paper's physical
// testbed (an i3 laptop and three Android phones as workers, a MacBook Pro
// edge node, a GPU server cloud, 5 GHz Wi-Fi worker links, wired edge link,
// and a public-Internet WAN). Absolute values are calibrated estimates; what
// the experiment compares — and what this simulator preserves — is the
// architectural asymmetry: LAN syncs are cheap and frequent, WAN syncs are
// expensive, and the three-tier layout pays WAN only every τ·π iterations
// while two-tier pays it every sync.
package netsim

import (
	"errors"
	"time"

	"hieradmo/internal/rng"
)

// ErrEnv wraps environment validation failures.
var ErrEnv = errors.New("netsim: invalid environment")

// DeviceProfile models a device's per-iteration compute delay as a
// log-normal distribution (heavy-tailed, always positive), parameterized by
// the median delay and a shape factor.
type DeviceProfile struct {
	// Name identifies the device in reports.
	Name string
	// Median is the median per-iteration compute delay.
	Median time.Duration
	// Sigma is the log-normal shape parameter; 0 makes the delay
	// deterministic.
	Sigma float64
}

// Sample draws one per-iteration compute delay.
func (p DeviceProfile) Sample(r *rng.RNG) time.Duration {
	if p.Sigma == 0 {
		return p.Median
	}
	f := r.LogNormal(0, p.Sigma)
	return time.Duration(float64(p.Median) * f)
}

// LinkProfile models a network link with fixed round-trip latency and a
// log-normally jittered throughput.
type LinkProfile struct {
	// Name identifies the link in reports.
	Name string
	// RTT is the round-trip latency paid once per transfer.
	RTT time.Duration
	// Mbps is the median throughput in megabits per second.
	Mbps float64
	// Jitter is the log-normal shape on the transfer duration; 0 disables.
	Jitter float64
}

// Transfer returns the time to move size bytes across the link.
func (l LinkProfile) Transfer(size int, r *rng.RNG) time.Duration {
	if l.Mbps <= 0 {
		return l.RTT
	}
	seconds := float64(size*8) / (l.Mbps * 1e6)
	if l.Jitter > 0 {
		seconds *= r.LogNormal(0, l.Jitter)
	}
	return l.RTT + time.Duration(seconds*float64(time.Second))
}

// Payload describes how many bytes each synchronization leg moves. HierAdMo
// workers upload the model, momentum, and the two interval accumulators
// (Alg. 1 line 9) and download the model and momentum; plain FedAvg-style
// algorithms move one model each way.
type Payload struct {
	// WorkerUp/WorkerDown are the bytes a worker exchanges with its
	// aggregator (the tree's leaf parent, the cloud in a flat view) per sync.
	WorkerUp, WorkerDown int
	// EdgeUp/EdgeDown are the bytes an aggregator exchanges with its parent
	// per parent round (trees deeper than two levels only).
	EdgeUp, EdgeDown int
}

// Timeline maps iteration index t ∈ [0, T] to cumulative simulated
// wall-clock time; Timeline[0] is always 0.
type Timeline []time.Duration

// At returns the wall-clock time after t iterations, clamping to the range.
func (tl Timeline) At(t int) time.Duration {
	if len(tl) == 0 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	if t >= len(tl) {
		t = len(tl) - 1
	}
	return tl[t]
}

// Total returns the full-run duration.
func (tl Timeline) Total() time.Duration { return tl.At(len(tl) - 1) }

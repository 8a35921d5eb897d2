package transport

import (
	"fmt"
	"sync"
	"time"

	"hieradmo/internal/rng"
	"hieradmo/internal/telemetry"
)

// Link identifies one directed sender→receiver pair for per-link fault
// configuration.
type Link struct {
	From, To string
}

// FaultPlan is a deterministic seeded fault schedule for a FaultyNetwork.
// Every random decision is drawn from a per-link stream derived from Seed,
// so the set of dropped messages depends only on the per-link message
// sequence, not on goroutine interleaving across links.
type FaultPlan struct {
	// Seed derives every per-link fault stream.
	Seed uint64
	// DropRate is the default probability that any message is silently
	// discarded (sender sees success, receiver nothing).
	DropRate float64
	// LinkDrop overrides DropRate for specific directed links.
	LinkDrop map[Link]float64
	// MaxDelay, when positive, stalls each surviving send for a uniform
	// random duration in [0, MaxDelay] before handing it to the inner
	// network (sender-side latency injection).
	MaxDelay time.Duration
	// CrashAtRound crashes a node at a protocol round: once the node sends
	// a message with Round >= the configured round — or a peer sends one to
	// it — the node counts as crashed: its own sends and receives return
	// ErrCrashed, and messages addressed to it are silently dropped (nobody
	// is reading them anymore).
	CrashAtRound map[string]int
	// RestartAfterRounds bounds a CrashAtRound outage: a node that crashes
	// at round r comes back at round r + RestartAfterRounds[id]. Traffic
	// inside the outage window [r, r+Δ) is still black-holed, but the first
	// message at or past the revival round — sent by the node or addressed
	// to it — marks the node as restarted: its endpoint works again and the
	// runtime may respawn it from its checkpoint. Nodes absent from the map
	// stay down forever (the plain CrashAtRound semantics).
	RestartAfterRounds map[string]int
}

// dropRate resolves the drop probability for one directed link.
func (p *FaultPlan) dropRate(from, to string) float64 {
	if r, ok := p.LinkDrop[Link{From: from, To: to}]; ok {
		return r
	}
	return p.DropRate
}

// crashRound returns the round at which id crashes, or false.
func (p *FaultPlan) crashRound(id string) (int, bool) {
	r, ok := p.CrashAtRound[id]
	return r, ok
}

// reviveRound returns the round at which id's injected outage ends, or
// false when the node crashes without a scheduled restart.
func (p *FaultPlan) reviveRound(id string) (int, bool) {
	r, ok := p.CrashAtRound[id]
	if !ok {
		return 0, false
	}
	d, ok := p.RestartAfterRounds[id]
	if !ok || d <= 0 {
		return 0, false
	}
	return r + d, true
}

// FaultyNetwork composes deterministic fault injection over any inner
// Network (MemoryNetwork and TCPNetwork both work): per-link message drops,
// per-message delays, and crash-at-round node failures. It is the one fault
// injector of the transports and works identically over the in-process hub
// and real sockets, so chaos tests run against the same transport code
// production uses.
type FaultyNetwork struct {
	inner Network
	plan  FaultPlan

	mu      sync.Mutex
	links   map[Link]*rng.RNG
	crashed map[string]bool
	revived map[string]bool
	stats   FaultStats
	sink    *telemetry.Sink
}

// SetTelemetry mirrors injected drops and delays onto sink's counters as
// they happen, and forwards the sink to the inner network when it accepts
// one (so TCP send retries are counted too). Call before the run starts.
func (n *FaultyNetwork) SetTelemetry(sink *telemetry.Sink) {
	n.mu.Lock()
	n.sink = sink
	n.mu.Unlock()
	if ts, ok := n.inner.(TelemetrySetter); ok {
		ts.SetTelemetry(sink)
	}
}

// NewFaultyNetwork wraps inner with the given fault plan.
func NewFaultyNetwork(inner Network, plan FaultPlan) *FaultyNetwork {
	return &FaultyNetwork{
		inner:   inner,
		plan:    plan,
		links:   make(map[Link]*rng.RNG),
		crashed: make(map[string]bool),
		revived: make(map[string]bool),
	}
}

// Endpoint returns a fault-injecting endpoint for id backed by the inner
// network's endpoint.
func (n *FaultyNetwork) Endpoint(id string) (Endpoint, error) {
	ep, err := n.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &faultyEndpoint{net: n, inner: ep}, nil
}

// Close tears down the inner network.
func (n *FaultyNetwork) Close() error { return n.inner.Close() }

// FaultStats reports the faults injected so far, merged with the inner
// network's own counters when it exposes them.
func (n *FaultyNetwork) FaultStats() FaultStats {
	n.mu.Lock()
	stats := n.stats
	stats.Crashed = append([]string(nil), n.stats.Crashed...)
	stats.Restarted = append([]string(nil), n.stats.Restarted...)
	n.mu.Unlock()
	if sr, ok := n.inner.(StatsReporter); ok {
		stats.merge(sr.FaultStats())
	}
	return stats
}

// linkRNG returns the deterministic fault stream for one directed link,
// derived from the plan seed and a hash of the link's node IDs.
func (n *FaultyNetwork) linkRNG(l Link) *rng.RNG {
	if r, ok := n.links[l]; ok {
		return r
	}
	// FNV-1a over "from\x00to" labels the stream; collisions would only
	// correlate two links' fault schedules, never break determinism.
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range []byte(l.From) {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ 0) * prime
	for _, b := range []byte(l.To) {
		h = (h ^ uint64(b)) * prime
	}
	r := rng.New(n.plan.Seed).Split(h)
	n.links[l] = r
	return r
}

// markCrashed records that id's crash has triggered (idempotently).
func (n *FaultyNetwork) markCrashed(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed[id] {
		n.crashed[id] = true
		n.stats.Crashed = append(n.stats.Crashed, id)
	}
}

func (n *FaultyNetwork) isCrashed(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// markRevived records that id's outage window has ended (idempotently). The
// crash is recorded too if nobody observed it before the revival round.
func (n *FaultyNetwork) markRevived(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed[id] {
		n.crashed[id] = true
		n.stats.Crashed = append(n.stats.Crashed, id)
	}
	if !n.revived[id] {
		n.revived[id] = true
		n.stats.Restarted = append(n.stats.Restarted, id)
	}
}

// Revived reports whether id's injected outage has ended: the node crashed
// and traffic at or past its revival round has since been observed. The
// cluster runtime polls this to decide when to respawn the node from its
// checkpoint.
func (n *FaultyNetwork) Revived(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.revived[id]
}

// RestartPlanned reports whether the plan schedules id to come back after
// its crash.
func (n *FaultyNetwork) RestartPlanned(id string) bool {
	_, ok := n.plan.reviveRound(id)
	return ok
}

// isDown reports whether id is inside its outage: crashed and not (yet)
// revived.
func (n *FaultyNetwork) isDown(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id] && !n.revived[id]
}

type faultyEndpoint struct {
	net   *FaultyNetwork
	inner Endpoint
}

var _ Endpoint = (*faultyEndpoint)(nil)

func (e *faultyEndpoint) ID() string { return e.inner.ID() }

func (e *faultyEndpoint) Send(to string, msg Message) error {
	n := e.net
	// Crash-at-round: a node learns it is dead the moment it acts at or
	// past its crash round; its peers' messages to it are black-holed from
	// that round on (the process is no longer reading). A scheduled restart
	// bounds the outage: the first message at or past the revival round —
	// the node's own or a peer's — flips it back to alive. A revived node
	// sends freely at ANY round: the respawned process replays rounds from
	// its checkpoint, and those catch-up sends belong to the new incarnation,
	// not the outage.
	if r, ok := n.plan.crashRound(e.ID()); ok && !n.Revived(e.ID()) {
		if r2, restarts := n.plan.reviveRound(e.ID()); restarts && msg.Round >= r2 {
			n.markRevived(e.ID())
		} else if msg.Round >= r || n.isCrashed(e.ID()) {
			n.markCrashed(e.ID())
			return fmt.Errorf("transport: %q send at round %d: %w", e.ID(), msg.Round, ErrCrashed)
		}
	}
	if r, ok := n.plan.crashRound(to); ok && msg.Round >= r {
		if r2, restarts := n.plan.reviveRound(to); restarts && msg.Round >= r2 {
			// Past the outage window: the restarted process is reading again.
			n.markRevived(to)
		} else if !n.Revived(to) {
			// Inside the outage window (or crashed for good): record the
			// crash so the node's own receives start failing and the fault
			// report names it, then black-hole the message.
			n.markCrashed(to)
			n.mu.Lock()
			n.stats.Dropped++
			sink := n.sink
			n.mu.Unlock()
			sink.M().DroppedMessages.Inc()
			return nil
		}
	}
	link := Link{From: e.ID(), To: to}
	drop := n.plan.dropRate(e.ID(), to)
	var delay time.Duration
	if drop > 0 || n.plan.MaxDelay > 0 {
		n.mu.Lock()
		r := n.linkRNG(link)
		dropped := drop > 0 && r.Float64() < drop
		delayed := !dropped && n.plan.MaxDelay > 0
		if delayed {
			delay = time.Duration(r.Float64() * float64(n.plan.MaxDelay))
			n.stats.Delayed++
		}
		if dropped {
			n.stats.Dropped++
		}
		sink := n.sink
		n.mu.Unlock()
		if dropped {
			sink.M().DroppedMessages.Inc()
			return nil // injected loss: sender sees success
		}
		if delayed {
			sink.M().DelayedMessages.Inc()
		}
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return e.inner.Send(to, msg)
}

func (e *faultyEndpoint) Recv() (Message, error) {
	if e.net.isDown(e.ID()) {
		return Message{}, fmt.Errorf("transport: %q recv: %w", e.ID(), ErrCrashed)
	}
	return e.inner.Recv()
}

func (e *faultyEndpoint) RecvTimeout(d time.Duration) (Message, error) {
	if e.net.isDown(e.ID()) {
		return Message{}, fmt.Errorf("transport: %q recv: %w", e.ID(), ErrCrashed)
	}
	return e.inner.RecvTimeout(d)
}

func (e *faultyEndpoint) Close() error { return e.inner.Close() }

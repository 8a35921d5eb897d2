// Package transport provides the message-passing substrate for the
// distributed execution of HierAdMo (internal/cluster): a Message format
// carrying model-sized vectors between named nodes, an in-memory network, a
// TCP network carrying length-prefixed binary frames (codec.go) over real
// sockets, and one deterministic fault injector over either (FaultyNetwork).
//
// A received Message's payload lives in a buffer owned by the directed link
// that delivered it (frame.go); Message.Release hands the buffer back for
// the link's next message. DESIGN.md §7.7 has the frame layout and the
// ownership rules.
//
// The in-process simulation in internal/fl is the reference semantics; the
// cluster runtime built on this package must produce bit-identical results
// (verified by the equivalence tests in internal/cluster).
package transport

import (
	"errors"
	"time"

	"hieradmo/internal/telemetry"
)

// Protocol errors callers can match.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownNode is returned when sending to an unregistered node.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrTimeout is returned by RecvTimeout when no message arrives in time.
	ErrTimeout = errors.New("transport: receive timeout")
	// ErrCrashed is returned by endpoints of a node a FaultPlan has crashed;
	// the node's goroutine observes it and exits, simulating process death.
	ErrCrashed = errors.New("transport: node crashed (injected fault)")
	// ErrDuplicateNode is returned when a node ID registers while its
	// previous registration is still live. Silently shadowing the old
	// stream would let two processes split one identity's traffic, so
	// late-joining nodes must either use a fresh ID or wait for the old
	// endpoint to close.
	ErrDuplicateNode = errors.New("transport: node already registered")
	// ErrFrame is returned for a wire frame that is malformed or declares
	// sizes beyond the codec's caps, and by Send for a message the frame
	// format cannot carry.
	ErrFrame = errors.New("transport: malformed frame")
)

// Network is the transport factory a protocol runs over; MemoryNetwork,
// TCPNetwork, and FaultyNetwork all satisfy it (cluster.Network is an alias).
type Network interface {
	// Endpoint returns the endpoint for a node ID.
	Endpoint(id string) (Endpoint, error)
	// Close tears the network down after the run.
	Close() error
}

// FaultStats aggregates transport-level fault counters for observability:
// injected losses, injected crashes, and send retries.
type FaultStats struct {
	// Dropped counts messages discarded by fault injection (the sender saw
	// success, the receiver nothing).
	Dropped int
	// Delayed counts messages delivered after an injected delay.
	Delayed int
	// Retries counts send attempts that had to be repeated after a
	// transient failure.
	Retries int
	// Crashed lists node IDs whose injected crash has triggered.
	Crashed []string
	// Restarted lists node IDs whose injected crash ended with a restart
	// (the node came back after its configured outage window).
	Restarted []string
}

// merge adds other's counters into s.
func (s *FaultStats) merge(other FaultStats) {
	s.Dropped += other.Dropped
	s.Delayed += other.Delayed
	s.Retries += other.Retries
	s.Crashed = append(s.Crashed, other.Crashed...)
	s.Restarted = append(s.Restarted, other.Restarted...)
}

// StatsReporter is implemented by networks that track fault statistics;
// callers may type-assert a Network to surface them after a run.
type StatsReporter interface {
	FaultStats() FaultStats
}

// TelemetrySetter is implemented by networks (and endpoints) that can mirror
// their fault counters onto a telemetry sink live as faults happen —
// injected drops and delays on FaultyNetwork, send retries on TCP transports.
// Must be called before the run starts sending; a nil sink is a no-op. The
// end-of-run FaultStats totals are unaffected either way, so callers that
// fold FaultStats into a FaultReport never double-count.
type TelemetrySetter interface {
	SetTelemetry(*telemetry.Sink)
}

// Message is one protocol datagram. Vectors carry model-sized state (models,
// momenta, gradient accumulators); Scalars carry small metadata such as
// losses and data weights.
//
// Send is synchronous on every transport: once it returns the transport
// holds no reference to the sender's vectors or scalars, so the sender may
// overwrite or reuse them at once. A received message's Vectors and Scalars
// belong to the link that delivered it until Release.
type Message struct {
	// From and To are node IDs; the sending endpoint fills From.
	From string `json:"from"`
	To   string `json:"to"`
	// Kind is the protocol message type (e.g. "edge-report").
	Kind string `json:"kind"`
	// Round is the protocol round the message belongs to, for debugging and
	// ordering assertions.
	Round int `json:"round"`
	// Vectors is the model-sized payload. A zero-length vector arrives with
	// length 0, an absent or empty Vectors as nil.
	Vectors [][]float64 `json:"vectors"`
	// Scalars is small named metadata; nil and empty both arrive as sent.
	Scalars map[string]float64 `json:"scalars"`

	// lease is the link-owned buffer Vectors and Scalars are carved from;
	// zero for messages built by the caller.
	lease lease
}

// Release hands a received message's buffer back to the link that
// delivered it, which reuses it for a later message: after Release the
// message's Vectors and Scalars must not be read again. Releasing is an
// optimisation only — a message that is never released stays valid for
// ever and the link allocates a replacement buffer. Releasing twice, or
// releasing a message that was not received from a transport, does
// nothing.
func (m Message) Release() {
	if f := m.lease.frame; f != nil {
		f.list.put(f, m.lease.gen)
	}
}

// Endpoint is one node's handle on a network.
type Endpoint interface {
	// ID returns the node's name.
	ID() string
	// Send delivers msg to the named node. The transport fills From/To.
	Send(to string, msg Message) error
	// Recv blocks until a message arrives or the endpoint closes.
	Recv() (Message, error)
	// RecvTimeout is Recv with a deadline; it returns ErrTimeout when no
	// message arrives in time (the failure-detection primitive the cluster
	// protocol uses).
	RecvTimeout(d time.Duration) (Message, error)
	// Close releases the endpoint; pending and future Recv calls return
	// ErrClosed.
	Close() error
}

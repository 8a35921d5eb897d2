package transport

import (
	"fmt"
	"sync"
	"time"

	"hieradmo/internal/rng"
)

// MemoryNetwork is an in-process hub connecting named endpoints through
// buffered channels, with optional failure injection (message drops and
// delivery delays) for protocol robustness tests. Send copies the message
// once, into a buffer of the directed link it travels (see frameList).
type MemoryNetwork struct {
	mu    sync.Mutex
	boxes map[string]*mailbox
	links map[Link]*frameList
	// done is every mailbox's shutdown signal, closed by Close.
	done chan struct{}
	// claimed tracks node IDs with a live endpoint; a second Endpoint call
	// for a claimed ID is rejected with ErrDuplicateNode until the first
	// endpoint closes, so late joiners cannot shadow a running node.
	claimed map[string]bool
	closed  bool

	dropRate float64
	maxDelay time.Duration
	faultRNG *rng.RNG
	stats    FaultStats

	//flvet:allow goexec -- transport-internal lifecycle tracking for injected-delay deliveries; no training data flows through it
	wg sync.WaitGroup // tracks delayed deliveries
}

// FaultStats reports how many messages the hub's own injection dropped or
// delayed.
func (n *MemoryNetwork) FaultStats() FaultStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// MemoryOption configures failure injection.
type MemoryOption func(*MemoryNetwork)

// WithDropRate makes the network silently discard each message with
// probability p, using the seeded generator for reproducibility.
func WithDropRate(p float64, seed uint64) MemoryOption {
	return func(n *MemoryNetwork) {
		n.dropRate = p
		n.faultRNG = rng.New(seed)
	}
}

// WithDelay delivers each message after a uniform random delay in
// [0, maxDelay], exercising reordering across sender pairs.
func WithDelay(maxDelay time.Duration, seed uint64) MemoryOption {
	return func(n *MemoryNetwork) {
		n.maxDelay = maxDelay
		if n.faultRNG == nil {
			n.faultRNG = rng.New(seed)
		}
	}
}

// NewMemoryNetwork returns an empty hub.
func NewMemoryNetwork(opts ...MemoryOption) *MemoryNetwork {
	n := &MemoryNetwork{
		boxes:   make(map[string]*mailbox),
		links:   make(map[Link]*frameList),
		done:    make(chan struct{}),
		claimed: make(map[string]bool),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Endpoint registers the endpoint for a node ID. The ID stays claimed until
// the returned endpoint closes; registering it again before then returns
// ErrDuplicateNode. The node's inbox outlives the endpoint, so a later
// (re-)registration — e.g. a planned late join after a clean close — sees
// messages queued in between.
func (n *MemoryNetwork) Endpoint(id string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if n.claimed[id] {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	n.claimed[id] = true
	box, ok := n.boxes[id]
	if !ok {
		box = newMailbox(id, n.done)
		n.boxes[id] = box
	}
	return &memoryEndpoint{net: n, mailbox: box}, nil
}

// Close shuts the hub down; blocked receivers return ErrClosed once their
// queues are empty.
func (n *MemoryNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

// deliver copies msg into a buffer of its link and queues it for msg.To.
func (n *MemoryNetwork) deliver(msg Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	box, ok := n.boxes[msg.To]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, msg.To)
	}
	inbox := box.ch
	link := Link{From: msg.From, To: msg.To}
	frames := n.links[link]
	if frames == nil {
		frames = new(frameList)
		n.links[link] = frames
	}
	var delay time.Duration
	if n.faultRNG != nil {
		if n.dropRate > 0 && n.faultRNG.Float64() < n.dropRate {
			n.stats.Dropped++
			n.mu.Unlock()
			return nil // injected loss: sender sees success, receiver nothing
		}
		if n.maxDelay > 0 {
			delay = time.Duration(n.faultRNG.Float64() * float64(n.maxDelay))
			n.stats.Delayed++
		}
	}
	if delay > 0 {
		n.wg.Add(1)
	}
	n.mu.Unlock()
	msg = frames.copyOf(msg)
	if delay == 0 {
		select {
		case inbox <- msg:
			return nil
		default:
			return fmt.Errorf("transport: inbox of %q full", msg.To)
		}
	}
	time.AfterFunc(delay, func() {
		defer n.wg.Done()
		select {
		case inbox <- msg:
		default:
		}
	})
	return nil
}

// memoryEndpoint is a node's claim on its hub mailbox, which supplies the
// receive half.
type memoryEndpoint struct {
	net *MemoryNetwork
	*mailbox
	// released makes Close idempotent: only the first call gives the ID
	// claim back (a second endpoint may hold it by then).
	released bool
}

var _ Endpoint = (*memoryEndpoint)(nil)

func (e *memoryEndpoint) Send(to string, msg Message) error {
	msg.From, msg.To = e.id, to
	return e.net.deliver(msg)
}

func (e *memoryEndpoint) Close() error {
	// Closing an endpoint releases its ID claim so the name can be taken
	// again; the inbox stays open (sibling nodes keep running, and queued
	// messages survive for a successor). The hub's Close tears everything
	// down.
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if !e.released {
		e.released = true
		delete(e.net.claimed, e.id)
	}
	return nil
}

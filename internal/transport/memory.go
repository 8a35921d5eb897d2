package transport

import (
	"fmt"
	"sync"
)

// MemoryNetwork is an in-process hub connecting named endpoints through
// buffered channels; FaultyNetwork wraps it for failure injection. Send
// copies the message once, into a buffer of the directed link it travels
// (see frameList).
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
}

// NewMemoryNetwork returns an empty hub.
func NewMemoryNetwork() *MemoryNetwork {
	return &MemoryNetwork{
		boxes:   make(map[string]*mailbox),
		links:   make(map[Link]*frameList),
		done:    make(chan struct{}),
		claimed: make(map[string]bool),
	}
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
	n.mu.Unlock()
	msg = frames.copyOf(msg)
	select {
	case inbox <- msg:
		return nil
	default:
		return fmt.Errorf("transport: inbox of %q full", msg.To)
	}
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

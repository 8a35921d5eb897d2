package transport

import (
	"fmt"
	"sync/atomic"
	"time"
)

// inboxSize bounds each node's pending-message queue. The cluster protocol
// has at most one outstanding message per peer pair per round, so the bound
// is never reached in correct runs; it exists so a misbehaving test cannot
// grow memory without bound while still decoupling sender and receiver
// schedules.
const inboxSize = 64

// mailbox is a node's receive queue, the receive half of both transports'
// endpoints.
type mailbox struct {
	id string
	ch chan Message
	// closed is closed when the owner — the memory hub, or the TCP
	// endpoint — shuts down.
	closed chan struct{}
	// timer is RecvTimeout's timer, parked between calls so the receive
	// path does not allocate one per message.
	timer atomic.Pointer[time.Timer]
}

func newMailbox(id string, closed chan struct{}) *mailbox {
	return &mailbox{id: id, ch: make(chan Message, inboxSize), closed: closed}
}

func (b *mailbox) ID() string { return b.id }

func (b *mailbox) Recv() (Message, error) { return b.wait(nil) }

func (b *mailbox) RecvTimeout(d time.Duration) (Message, error) {
	t := b.timer.Swap(nil)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	msg, err := b.wait(t.C)
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	// With several goroutines receiving at once the last to finish parks
	// its timer and the others' are dropped.
	b.timer.Store(t)
	if err == ErrTimeout {
		err = fmt.Errorf("%w: %q after %v", ErrTimeout, b.id, d)
	}
	return msg, err
}

// wait blocks for a message, the owner's shutdown, or expiry. Messages
// queued before the shutdown are still delivered: closure is reported only
// once the queue is empty.
func (b *mailbox) wait(expiry <-chan time.Time) (Message, error) {
	select {
	case msg := <-b.ch:
		return msg, nil
	case <-b.closed:
		select {
		case msg := <-b.ch:
			return msg, nil
		default:
			return Message{}, ErrClosed
		}
	case <-expiry:
		return Message{}, ErrTimeout
	}
}

package cluster

import (
	"errors"
	"fmt"
	"time"

	"hieradmo/internal/fl"
	"hieradmo/internal/transport"
)

// machine is one node of a run — a tierNode or a treeLeaf — as a state
// machine: it owns the node's protocol state and none of its I/O, so it
// holds no endpoint, no clock, no channel and no goroutine. It takes the
// time and each delivered message, and every call leaves what the node asks
// for in its outbox. drive is the one driver that does the I/O.
type machine interface {
	id() string
	// initCheckpoint binds the node's state to its checkpointer (nil: none).
	initCheckpoint() (*fl.Checkpointer, error)
	// start begins the node after its snapshot of resumed (0: none).
	start(now time.Time, resumed int) error
	// deliver hands the node one received message; the node releases it.
	deliver(now time.Time, msg transport.Message) error
	// expire tells the node that its wake time has come.
	expire(now time.Time) error
	// interrupt queues what the node saves on a shutdown request.
	interrupt()
	outbox() *outbox
}

// outbox is what one machine call asks of its driver. It is reused from call
// to call, and a queued message aliases the machine's own buffers
// (tierNode.out, treeLeaf.report), so the driver flushes it before the next
// input.
type outbox struct {
	// effects are the messages to send and the snapshots to save, in order,
	// kept in the outbox's own array until one call queues more: a node
	// allocates nothing to talk.
	effects []effect
	inline  [8]effect
	// wake is when the machine next wants expire; a time not after the
	// current one asks for it at once, before any receive.
	wake time.Time
	// done is set once the node has finished its part of the run.
	done bool
}

// effect is one queued request: msg for the node to, or, with to empty, a
// snapshot of the node's registered state as generation seq.
type effect struct {
	to  string
	msg transport.Message
	seq int
}

func (b *outbox) send(to string, msg transport.Message) { b.push(effect{to: to, msg: msg}) }
func (b *outbox) save(seq int)                          { b.push(effect{seq: seq}) }

func (b *outbox) push(e effect) {
	if b.effects == nil {
		b.effects = b.inline[:0]
	}
	b.effects = append(b.effects, e)
}

// drive runs machine m over endpoint ep until it is done, fails, or is
// interrupted. It restores the node's snapshots and saves the ones the
// machine asks for, reads the clock, sends what the machine queues, and
// receives until the machine's wake time — in slices of at most
// interruptSlice while a shutdown channel is set, so an interrupt is noticed
// within one slice even on a quiet socket. The interrupt is checked before
// every input, so a leaf notices it between any two iterations. Resuming
// loads the node's newest valid generation; a fresh start clears leftover
// generations from a previous run instead.
func drive(m machine, ep transport.Endpoint, opts Options) error {
	id := m.id()
	ck, err := m.initCheckpoint()
	defer ck.Close()
	resumed := 0
	if err == nil {
		if opts.Resume {
			resumed, err = ck.Restore()
		} else {
			err = ck.Clear()
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", id, err)
	}
	box := m.outbox()
	err = m.start(time.Now(), resumed)
	for {
		// What the machine queued before an error was sent before it too.
		if ferr := flush(box, ep, ck, id); ferr != nil {
			return ferr
		}
		if err != nil || box.done {
			return err
		}
		if interrupted(opts.Interrupt) {
			m.interrupt()
			if err := flush(box, ep, ck, id); err != nil {
				return err
			}
			return fmt.Errorf("cluster: %s: %w", id, ErrInterrupted)
		}
		now := time.Now()
		wait := box.wake.Sub(now)
		if wait <= 0 {
			err = m.expire(now)
			continue
		}
		if opts.Interrupt != nil {
			wait = min(wait, interruptSlice)
		}
		msg, rerr := ep.RecvTimeout(wait)
		if rerr == nil {
			err = m.deliver(time.Now(), msg)
		} else if !errors.Is(rerr, transport.ErrTimeout) {
			return fmt.Errorf("cluster: %s: %w", id, rerr)
		}
	}
}

// flush carries out the outbox in order and empties it: a send or a save
// that fails ends the node, and what was queued after it never happens. A
// save without a checkpointer (checkpointing disabled) is a no-op.
func flush(box *outbox, ep transport.Endpoint, ck *fl.Checkpointer, id string) error {
	for _, e := range box.effects {
		if e.to == "" {
			if err := ck.Save(e.seq); err != nil {
				return fmt.Errorf("cluster: %s: %w", id, err)
			}
		} else if err := ep.Send(e.to, e.msg); err != nil {
			return fmt.Errorf("cluster: %s send %s to %s: %w", id, e.msg.Kind, e.to, err)
		}
	}
	box.effects = box.effects[:0]
	return nil
}

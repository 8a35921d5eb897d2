package transport

import "sync"

// maxFreeFrames bounds the buffers a link keeps for reuse. A fault-free
// protocol run has at most one message outstanding per link, so one buffer
// cycles; the bound only stops a burst (the inbox holds 64 messages) from
// pinning its peak memory for the rest of the run.
const maxFreeFrames = 4

// frame is the storage of one received message: every vector is carved from
// the one contiguous data buffer, and vecs and scalars are the slice header
// and map the Message points at.
type frame struct {
	list *frameList
	// gen counts the frame's releases. A lease remembers the value it was
	// taken at, so a stale copy of a message cannot release the buffer out
	// from under the message that reuses it. Guarded by list.mu.
	gen     uint64
	data    []float64
	used    int
	vecs    [][]float64
	scalars map[string]float64
}

// lease ties a Message to the frame it was carved from.
type lease struct {
	frame *frame
	gen   uint64
}

// frameList is the free list of one directed link: the memory hub keeps one
// per (sender, receiver) pair, the TCP transport one per inbound
// connection. Buffers are owned per link rather than pooled process-wide
// (or in the sync package's pool, which the collector empties at times the
// program does not control) so that the number of buffers a run allocates
// is fixed by its topology and repeats exactly from run to run.
type frameList struct {
	mu   sync.Mutex
	free []*frame
}

// take returns a buffer with empty scalars and the lease to stamp on the
// message built from it. Callers size it, then carve the vectors with next.
func (l *frameList) take() (*frame, lease) {
	var f *frame
	l.mu.Lock()
	if len(l.free) == 0 {
		f = newFrame(l)
	} else {
		f = l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
	}
	gen := f.gen
	l.mu.Unlock()
	clear(f.scalars)
	return f, lease{frame: f, gen: gen}
}

// put returns f to the list if gen is still its current lease.
func (l *frameList) put(f *frame, gen uint64) {
	l.mu.Lock()
	if f.gen == gen {
		f.gen++
		if len(l.free) < maxFreeFrames {
			l.free = append(l.free, f)
		}
	}
	l.mu.Unlock()
}

// newFrame sizes the scalar map for the largest scalar set the protocol
// sends, a leaf report's loss and eq. (6) term.
func newFrame(l *frameList) *frame {
	return &frame{list: l, scalars: make(map[string]float64, 2)}
}

// size makes room for nvec vectors totalling nfloat values. A buffer that
// already served a message of the link's shape is reused as it is.
func (f *frame) size(nvec, nfloat int) {
	if cap(f.data) < nfloat {
		f.data = make([]float64, nfloat)
	}
	if cap(f.vecs) < nvec {
		f.vecs = make([][]float64, 0, nvec)
	}
	f.data, f.used, f.vecs = f.data[:nfloat], 0, f.vecs[:0]
}

// next carves the next n-value vector from the buffer. The capacity is
// clipped so an append by the receiver can never run into the neighbour.
func (f *frame) next(n int) []float64 {
	v := f.data[f.used : f.used+n : f.used+n]
	f.used += n
	f.vecs = append(f.vecs, v)
	return v
}

// message assembles the received Message over the frame's storage.
func (f *frame) message(ls lease, from, to, kind string, round int, scalars bool) Message {
	msg := Message{From: from, To: to, Kind: kind, Round: round, lease: ls}
	if len(f.vecs) > 0 {
		msg.Vectors = f.vecs
	}
	if scalars {
		msg.Scalars = f.scalars
	}
	return msg
}

// copyOf is the memory transport's delivery: the one copy of msg's payload,
// into a buffer of the link.
func (l *frameList) copyOf(msg Message) Message {
	nfloat := 0
	for _, v := range msg.Vectors {
		nfloat += len(v)
	}
	f, ls := l.take()
	f.size(len(msg.Vectors), nfloat)
	for _, v := range msg.Vectors {
		copy(f.next(len(v)), v)
	}
	for k, v := range msg.Scalars {
		f.scalars[k] = v
	}
	return f.message(ls, msg.From, msg.To, msg.Kind, msg.Round, msg.Scalars != nil)
}

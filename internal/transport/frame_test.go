package transport

import (
	"testing"

	"hieradmo/internal/allocprobe"
)

// framesOf is the free list a network's endpoints receive into.
func framesOf(t *testing.T, n Network) *frameList {
	t.Helper()
	switch n := n.(type) {
	case *MemoryNetwork:
		return &n.frames
	case *TCPNetwork:
		return &n.frames
	}
	t.Fatalf("%T keeps no free list", n)
	return nil
}

// freeFrames reads the list's length and cap under its lock.
func freeFrames(l *frameList) (free, limit int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free), l.limit
}

// TestFramesSharedAcrossLinks: the buffers belong to the network, not to a
// link. A frame one receiver releases carries the next message of another
// link; a stale copy's Release after that reuse does nothing; and a burst
// leaves no more free frames than the network's cap once it drains.
func TestFramesSharedAcrossLinks(t *testing.T) {
	for _, tr := range wireNetworks[:2] {
		t.Run(tr.name, func(t *testing.T) {
			n := tr.net()
			a, b, c := mustEndpoint(t, n, "a"), mustEndpoint(t, n, "b"), mustEndpoint(t, n, "c")
			t.Cleanup(func() {
				a.Close()
				b.Close()
				c.Close()
				n.Close()
			})
			send := func(from, to Endpoint, x float64) Message {
				t.Helper()
				if err := from.Send(to.ID(), Message{Kind: "k", Vectors: [][]float64{{x, x, x}}}); err != nil {
					t.Fatal(err)
				}
				return recvOrFatal(t, to)
			}

			first := send(a, c, 1)
			stale := first
			first.Release()
			second := send(b, a, 2)
			if second.lease.frame != first.lease.frame {
				t.Fatal("the frame c released did not carry b's next message to a")
			}
			stale.Release()
			third := send(c, b, 3)
			if third.lease.frame == second.lease.frame {
				t.Fatal("a stale Release put back the frame a later message holds")
			}
			sameBits(t, second, Message{Kind: "k", Vectors: [][]float64{{2, 2, 2}}})
			second.Release()
			third.Release()

			for i := 0; i < inboxSize; i++ {
				if err := a.Send("c", Message{Kind: "burst", Round: i, Vectors: [][]float64{{float64(i)}}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < inboxSize; i++ {
				recvOrFatal(t, c).Release()
			}
			free, limit := freeFrames(framesOf(t, n))
			if limit != 3*maxFreeFrames || free != limit {
				t.Errorf("after a drained %d-message burst %d frames are free under a cap of %d, want the cap %d",
					inboxSize, free, limit, 3*maxFreeFrames)
			}
		})
	}
}

// TestMemoryInboxFullReleasesFrame: a message a full inbox refuses gives its
// frame back, so once the inbox has room the next send reuses it and
// allocates nothing.
func TestMemoryInboxFullReleasesFrame(t *testing.T) {
	n := NewMemoryNetwork()
	a, b := mustEndpoint(t, n, "a"), mustEndpoint(t, n, "b")
	defer n.Close()
	msg := Message{Kind: "k", Vectors: [][]float64{{1, 2, 3}}}
	for i := 0; i < inboxSize; i++ {
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Send("b", msg); err == nil {
		t.Fatal("a send to a full inbox succeeded")
	}
	if free, _ := freeFrames(&n.frames); free != 1 {
		t.Fatalf("%d frames free after the refused send, want its 1", free)
	}
	held := recvOrFatal(t, b) // room for one more; its frame stays leased
	objects, _ := allocprobe.Own(func() {
		if err := a.Send("b", msg); err != nil {
			t.Error(err)
		}
	})
	if objects != 0 {
		t.Errorf("the send after the refused one allocated %v objects, want 0", objects)
	}
	sameBits(t, held, msg)
}

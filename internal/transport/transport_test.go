package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestMemorySendRecv(t *testing.T) {
	net := NewMemoryNetwork()
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	want := Message{Kind: "ping", Round: 7, Vectors: [][]float64{{1, 2, 3}}}
	if err := a.Send("b", want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.To != "b" || got.Kind != "ping" || got.Round != 7 {
		t.Errorf("got %+v", got)
	}
	if got.Vectors[0][2] != 3 {
		t.Errorf("payload lost: %v", got.Vectors)
	}
}

func TestMemoryUnknownNode(t *testing.T) {
	net := NewMemoryNetwork()
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("ghost", Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}

func TestMemoryRecvTimeout(t *testing.T) {
	net := NewMemoryNetwork()
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvTimeout(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestMemoryCloseUnblocksReceivers(t *testing.T) {
	net := NewMemoryNetwork()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestMemoryDropInjection(t *testing.T) {
	net := NewMemoryNetwork(WithDropRate(1.0, 1)) // drop everything
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", Message{Kind: "x"}); err != nil {
		t.Fatalf("drop should look like success to the sender: %v", err)
	}
	if _, err := b.RecvTimeout(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("dropped message was delivered: %v", err)
	}
}

func TestMemoryDelayInjectionStillDelivers(t *testing.T) {
	net := NewMemoryNetwork(WithDelay(20*time.Millisecond, 3))
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send("b", Message{Kind: "x", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for seen < 10 {
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatalf("delayed message lost after %d: %v", seen, err)
		}
		seen++
	}
}

func TestMemoryConcurrentSenders(t *testing.T) {
	net := NewMemoryNetwork()
	defer net.Close()
	sink, err := net.Endpoint("sink")
	if err != nil {
		t.Fatal(err)
	}
	const senders, per = 8, 5
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Endpoint(fmt.Sprintf("s%d", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send("sink", Message{Kind: "m"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		if _, err := sink.RecvTimeout(time.Second); err != nil {
			t.Fatalf("missing message %d: %v", i, err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	want := Message{Kind: "ping", Round: 3, Vectors: [][]float64{{4, 5}},
		Scalars: map[string]float64{"loss": 0.5}}
	if err := a.Send("b", want); err != nil {
		t.Fatal(err)
	}
	got, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.Kind != "ping" || got.Vectors[0][1] != 5 || got.Scalars["loss"] != 0.5 {
		t.Errorf("got %+v", got)
	}
}

func TestTCPBidirectional(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := 0; i < 20; i++ {
		if err := a.Send("b", Message{Kind: "req", Round: i}); err != nil {
			t.Fatal(err)
		}
		got, err := b.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send("a", Message{Kind: "resp", Round: got.Round}); err != nil {
			t.Fatal(err)
		}
		resp, err := a.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Round != i {
			t.Fatalf("round %d echoed as %d", i, resp.Round)
		}
	}
}

func TestTCPUnknownNode(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("ghost", Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}

func TestTCPDuplicateListen(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := net.Listen("a"); err == nil {
		t.Error("duplicate Listen accepted")
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestTCPLargePayload(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	big := make([]float64, 200_000)
	for i := range big {
		big[i] = float64(i)
	}
	if err := a.Send("b", Message{Kind: "big", Vectors: [][]float64{big}}); err != nil {
		t.Fatal(err)
	}
	got, err := b.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vectors[0]) != len(big) || got.Vectors[0][199_999] != 199_999 {
		t.Error("large payload corrupted")
	}
}

func TestTCPRecvTimeoutExpires(t *testing.T) {
	net := NewTCPNetwork()
	defer net.Close()
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	_, err = a.RecvTimeout(50 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("timeout fired after %v, before the deadline", elapsed)
	}
}

func TestTCPSendRetriesBrokenConn(t *testing.T) {
	// A send over a connection that died (peer restarted, RST) must redial
	// with a fresh encoder and deliver, not fail on the first broken pipe.
	tn := NewTCPNetwork()
	defer tn.Close()
	a, err := tn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send("b", Message{Kind: "x", Round: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Sever the cached a→b socket out from under the endpoint: the next
	// Send's Encode fails, which must evict the poisoned encoder and retry.
	ae := a.(*tcpEndpoint)
	ae.connMu.Lock()
	ae.conns["b"].conn.Close()
	ae.connMu.Unlock()

	if err := a.Send("b", Message{Kind: "x", Round: 2}); err != nil {
		t.Fatalf("send after severed conn: %v", err)
	}
	got, err := b.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("redialed message lost: %v", err)
	}
	if got.Round != 2 {
		t.Errorf("got round %d, want 2", got.Round)
	}
	if stats := tn.FaultStats(); stats.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", stats.Retries)
	}
}

func TestTCPSendToClosedPeerAborts(t *testing.T) {
	// With the peer gone for good, Send keeps redialing (it cannot know the
	// outage is permanent) but must abort promptly when the sender itself
	// shuts down instead of hanging for the full dial-retry budget.
	tn := NewTCPNetwork()
	defer tn.Close()
	a, err := tn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- a.Send("b", Message{Kind: "x"}) }()
	time.Sleep(100 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Send to dead peer did not abort on sender Close")
	}
}

func TestTCPCloseRacesRecv(t *testing.T) {
	// Close concurrent with blocked receivers and in-flight sends must not
	// deadlock, panic, or leak goroutines (the -race build checks the rest).
	tn := NewTCPNetwork()
	defer tn.Close()
	a, err := tn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				if _, err := a.Recv(); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := a.RecvTimeout(5 * time.Second); err != nil &&
				!errors.Is(err, ErrClosed) && !errors.Is(err, ErrTimeout) {
				t.Errorf("RecvTimeout: %v", err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := b.Send("a", Message{Kind: "x", Round: i}); err != nil {
				return
			}
		}
	}()

	a.Close() // races every goroutine above
	// A sender caught mid-redial against the now-dead listener unblocks via
	// its own endpoint's shutdown.
	b.Close()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("goroutines stuck after Close")
	}
}

package transport

import (
	"errors"
	"testing"
	"time"
)

// deliveredRounds sends n round-stamped messages a→b over a fresh
// FaultyNetwork built by mk and returns the rounds that arrived.
func deliveredRounds(t *testing.T, mk func() *FaultyNetwork, n int) []int {
	t.Helper()
	net := mk()
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := a.Send("b", Message{Kind: "x", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	for {
		msg, err := b.RecvTimeout(50 * time.Millisecond)
		if err != nil {
			break
		}
		got = append(got, msg.Round)
	}
	return got
}

func TestFaultyDropDeterministic(t *testing.T) {
	mk := func() *FaultyNetwork {
		return NewFaultyNetwork(NewMemoryNetwork(), FaultPlan{Seed: 42, DropRate: 0.3})
	}
	first := deliveredRounds(t, mk, 40)
	second := deliveredRounds(t, mk, 40)
	if len(first) == 40 || len(first) == 0 {
		t.Fatalf("drop rate 0.3 delivered %d/40", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("same seed delivered %d then %d messages", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed, different schedule: %v vs %v", first, second)
		}
	}
	// A different seed must eventually produce a different schedule.
	other := deliveredRounds(t, func() *FaultyNetwork {
		return NewFaultyNetwork(NewMemoryNetwork(), FaultPlan{Seed: 43, DropRate: 0.3})
	}, 40)
	same := len(other) == len(first)
	if same {
		for i := range first {
			if other[i] != first[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault schedules")
	}
}

func TestFaultyPerLinkDropOverride(t *testing.T) {
	// Link a→b is lossless, a→c drops everything.
	net := NewFaultyNetwork(NewMemoryNetwork(), FaultPlan{
		Seed:     7,
		DropRate: 0,
		LinkDrop: map[Link]float64{{From: "a", To: "c"}: 1.0},
	})
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	c, _ := net.Endpoint("c")
	for i := 0; i < 5; i++ {
		if err := a.Send("b", Message{Round: i}); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("c", Message{Round: i}); err != nil {
			t.Fatalf("dropped send must look like success: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatalf("lossless link lost message %d: %v", i, err)
		}
	}
	if _, err := c.RecvTimeout(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("fully lossy link delivered: %v", err)
	}
	if stats := net.FaultStats(); stats.Dropped != 5 {
		t.Errorf("Dropped = %d, want 5", stats.Dropped)
	}
}

func TestFaultyCrashAtRound(t *testing.T) {
	net := NewFaultyNetwork(NewMemoryNetwork(), FaultPlan{
		Seed:         1,
		CrashAtRound: map[string]int{"a": 3},
	})
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	// Rounds before the crash pass through.
	for i := 0; i < 3; i++ {
		if err := a.Send("b", Message{Round: i}); err != nil {
			t.Fatalf("pre-crash send round %d: %v", i, err)
		}
	}
	// The crash round kills the node: its own sends fail with ErrCrashed...
	if err := a.Send("b", Message{Round: 3}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send at crash round = %v, want ErrCrashed", err)
	}
	// ...including retroactively for earlier rounds (the process is dead),
	// and its receives fail too.
	if err := a.Send("b", Message{Round: 0}); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash send = %v, want ErrCrashed", err)
	}
	if _, err := a.RecvTimeout(20 * time.Millisecond); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash recv = %v, want ErrCrashed", err)
	}
	// Messages addressed to the dead node at or past its crash round are
	// black-holed so the sender is not blocked on an unread inbox.
	if err := b.Send("a", Message{Round: 5}); err != nil {
		t.Errorf("send to crashed node should be silently dropped: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatalf("pre-crash message %d lost: %v", i, err)
		}
	}
	stats := net.FaultStats()
	if len(stats.Crashed) != 1 || stats.Crashed[0] != "a" {
		t.Errorf("Crashed = %v, want [a]", stats.Crashed)
	}
	if stats.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (black-holed send to dead node)", stats.Dropped)
	}
}

func TestFaultyRestartAfterRounds(t *testing.T) {
	// "a" crashes at round 3 and is scheduled to come back at round 3+2=5.
	net := NewFaultyNetwork(NewMemoryNetwork(), FaultPlan{
		Seed:               1,
		CrashAtRound:       map[string]int{"a": 3},
		RestartAfterRounds: map[string]int{"a": 2},
	})
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	if !net.RestartPlanned("a") {
		t.Fatal("RestartPlanned(a) = false with RestartAfterRounds set")
	}
	if net.RestartPlanned("b") {
		t.Fatal("RestartPlanned(b) = true for an uncrashed node")
	}

	// The outage behaves exactly like a plain crash...
	if err := a.Send("b", Message{Round: 3}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("send at crash round = %v, want ErrCrashed", err)
	}
	if _, err := a.RecvTimeout(20 * time.Millisecond); !errors.Is(err, ErrCrashed) {
		t.Fatalf("in-outage recv = %v, want ErrCrashed", err)
	}
	// ...and traffic addressed to the node inside the window is black-holed.
	if err := b.Send("a", Message{Round: 4}); err != nil {
		t.Fatalf("in-outage send to crashed node: %v", err)
	}
	if net.Revived("a") {
		t.Fatal("Revived(a) = true inside the outage window")
	}

	// A peer message at the revival round ends the outage and is delivered.
	if err := b.Send("a", Message{Round: 5}); err != nil {
		t.Fatalf("revival-round send: %v", err)
	}
	if !net.Revived("a") {
		t.Fatal("Revived(a) = false after revival-round traffic")
	}
	if msg, err := a.RecvTimeout(time.Second); err != nil || msg.Round != 5 {
		t.Fatalf("revived recv = %v, %v; want round 5", msg, err)
	}
	// The respawned incarnation replays from its checkpoint, so it may send
	// rounds inside (or before) the old outage window — those must go through.
	if err := a.Send("b", Message{Round: 2}); err != nil {
		t.Fatalf("post-revival catch-up send: %v", err)
	}
	if msg, err := b.RecvTimeout(time.Second); err != nil || msg.Round != 2 {
		t.Fatalf("catch-up delivery = %v, %v; want round 2", msg, err)
	}

	stats := net.FaultStats()
	if len(stats.Crashed) != 1 || stats.Crashed[0] != "a" {
		t.Errorf("Crashed = %v, want [a]", stats.Crashed)
	}
	if len(stats.Restarted) != 1 || stats.Restarted[0] != "a" {
		t.Errorf("Restarted = %v, want [a]", stats.Restarted)
	}
	if stats.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (the in-outage black-holed send)", stats.Dropped)
	}
}

func TestFaultyDelayStillDelivers(t *testing.T) {
	net := NewFaultyNetwork(NewMemoryNetwork(), FaultPlan{Seed: 5, MaxDelay: 5 * time.Millisecond})
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	for i := 0; i < 10; i++ {
		if err := a.Send("b", Message{Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := b.RecvTimeout(time.Second); err != nil {
			t.Fatalf("delayed message %d lost: %v", i, err)
		}
	}
	if stats := net.FaultStats(); stats.Delayed != 10 {
		t.Errorf("Delayed = %d, want 10", stats.Delayed)
	}
}

func TestFaultyOverTCP(t *testing.T) {
	// The wrapper must compose over real sockets, not just the memory hub.
	net := NewFaultyNetwork(NewTCPNetwork(), FaultPlan{
		Seed:     3,
		LinkDrop: map[Link]float64{{From: "a", To: "b"}: 1.0},
	})
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send("b", Message{Kind: "x"}); err != nil {
		t.Fatalf("dropped TCP send must look like success: %v", err)
	}
	if _, err := b.RecvTimeout(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("dropped TCP message delivered: %v", err)
	}
	if err := b.Send("a", Message{Kind: "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvTimeout(2 * time.Second); err != nil {
		t.Errorf("clean reverse link lost the message: %v", err)
	}
}

package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"hieradmo/internal/allocprobe"
)

// wireNetworks are the transports and wrappers every message must cross
// unchanged.
var wireNetworks = []struct {
	name string
	net  func() Network
}{
	{"memory", func() Network { return NewMemoryNetwork() }},
	{"tcp", func() Network { return NewTCPNetwork() }},
	{"faulty/memory", func() Network { return NewFaultyNetwork(NewMemoryNetwork(), FaultPlan{Seed: 1}) }},
	{"counting/tcp", func() Network { return NewCountingNetwork(NewTCPNetwork()) }},
}

// pair opens endpoints "a" and "b" on a fresh network, closed with the test.
func pair(t *testing.T, mk func() Network) (a, b Endpoint) {
	t.Helper()
	n := mk()
	a, b = mustEndpoint(t, n, "a"), mustEndpoint(t, n, "b")
	t.Cleanup(func() {
		a.Close()
		b.Close()
		n.Close()
	})
	return a, b
}

func recvOrFatal(t *testing.T, ep Endpoint) Message {
	t.Helper()
	msg, err := ep.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// sameBits reports whether got carries exactly want's payload: float bit
// patterns (so NaN payloads and −0 count), vector lengths, and nil versus
// empty Scalars.
func sameBits(t *testing.T, got, want Message) {
	t.Helper()
	if got.Kind != want.Kind || got.Round != want.Round {
		t.Errorf("kind/round = %q/%d, want %q/%d", got.Kind, got.Round, want.Kind, want.Round)
	}
	if len(got.Vectors) != len(want.Vectors) {
		t.Fatalf("%d vectors, want %d", len(got.Vectors), len(want.Vectors))
	}
	for i, v := range want.Vectors {
		if len(got.Vectors[i]) != len(v) {
			t.Fatalf("vector %d has %d values, want %d", i, len(got.Vectors[i]), len(v))
		}
		for j, x := range v {
			if g := got.Vectors[i][j]; math.Float64bits(g) != math.Float64bits(x) {
				t.Fatalf("vector %d[%d] = %#x, want %#x", i, j, math.Float64bits(g), math.Float64bits(x))
			}
		}
	}
	if (got.Scalars == nil) != (want.Scalars == nil) || len(got.Scalars) != len(want.Scalars) {
		t.Fatalf("scalars = %v, want %v", got.Scalars, want.Scalars)
	}
	for k, x := range want.Scalars {
		if g, ok := got.Scalars[k]; !ok || math.Float64bits(g) != math.Float64bits(x) {
			t.Errorf("scalar %q = %v (present %v), want %v", k, g, ok, x)
		}
	}
}

// TestWireRoundTrip sends a table of awkward messages over every transport
// and wrapper and wants every bit back.
func TestWireRoundTrip(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8dead0000beef)
	signalling := math.Float64frombits(0x7ff0000000000001)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		msg  Message
	}{
		{"specials", Message{Kind: "k", Round: 3, Vectors: [][]float64{
			{nanPayload, signalling, negZero, math.Inf(1), math.Inf(-1), 5e-324, -2.2250738585072009e-308, math.MaxFloat64},
		}}},
		{"zero vectors", Message{Kind: "k", Vectors: [][]float64{make([]float64, 7), make([]float64, 3)}}},
		{"zero-length vectors", Message{Kind: "k", Vectors: [][]float64{{}, {1}, {}}}},
		{"no payload", Message{Kind: "retire", Round: 9}},
		{"negative round", Message{Kind: "k", Round: -4}},
		{"nil scalars", Message{Kind: "k", Vectors: [][]float64{{1}}}},
		{"empty scalars", Message{Kind: "k", Scalars: map[string]float64{}}},
		{"many scalars", Message{Kind: "k", Scalars: map[string]float64{"loss": nanPayload, "": negZero, "weight": 2, "a": 1, "b": -1}}},
		{"unknown kind", Message{Kind: "probe/∆ never-seen kind", Vectors: [][]float64{{1, 2}}}},
		{"report", reportMessage()},
	}
	for _, tr := range wireNetworks {
		t.Run(tr.name, func(t *testing.T) {
			a, b := pair(t, tr.net)
			for _, tc := range cases {
				if err := a.Send("b", tc.msg); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				got := recvOrFatal(t, b)
				if got.From != "a" || got.To != "b" {
					t.Errorf("%s: from/to = %q/%q", tc.name, got.From, got.To)
				}
				sameBits(t, got, tc.msg)
				got.Release()
			}
		})
	}
}

// TestWireLongNodeIDs round-trips node IDs up to the string cap and refuses
// one beyond it before anything reaches the wire.
func TestWireLongNodeIDs(t *testing.T) {
	long := strings.Repeat("n", maxFrameString)
	for _, tr := range wireNetworks[:2] {
		t.Run(tr.name, func(t *testing.T) {
			n := tr.net()
			defer n.Close()
			a, b := mustEndpoint(t, n, "a"), mustEndpoint(t, n, long)
			defer a.Close()
			defer b.Close()
			if err := a.Send(long, Message{Kind: long, Vectors: [][]float64{{1}}}); err != nil {
				t.Fatal(err)
			}
			if got := recvOrFatal(t, b); got.To != long || got.Kind != long {
				t.Errorf("long strings came back as %d/%d bytes", len(got.To), len(got.Kind))
			}
		})
	}
	a, b := pair(t, wireNetworks[1].net)
	if err := a.Send("b", Message{Kind: long + "x"}); !errors.Is(err, ErrFrame) {
		t.Errorf("over-long kind: err = %v, want ErrFrame", err)
	}
	if err := a.Send("b", Message{Vectors: make([][]float64, maxFrameVectors+1)}); !errors.Is(err, ErrFrame) {
		t.Errorf("too many vectors: err = %v, want ErrFrame", err)
	}
	// The refusals wrote nothing: the connection still carries whole frames.
	if err := a.Send("b", Message{Kind: "after"}); err != nil {
		t.Fatal(err)
	}
	if got := recvOrFatal(t, b); got.Kind != "after" {
		t.Errorf("got %q after the refused sends", got.Kind)
	}
}

// TestWireSenderKeepsItsBuffers: Send is synchronous, so overwriting the
// sent vectors and scalars right after it returns must not reach the
// receiver.
func TestWireSenderKeepsItsBuffers(t *testing.T) {
	for _, tr := range wireNetworks {
		t.Run(tr.name, func(t *testing.T) {
			a, b := pair(t, tr.net)
			v := []float64{1, 2, 3}
			sc := map[string]float64{"loss": 4}
			if err := a.Send("b", Message{Kind: "k", Vectors: [][]float64{v}, Scalars: sc}); err != nil {
				t.Fatal(err)
			}
			v[0], v[1], v[2], sc["loss"] = -1, -1, -1, -1
			sameBits(t, recvOrFatal(t, b), Message{Kind: "k", Vectors: [][]float64{{1, 2, 3}}, Scalars: map[string]float64{"loss": 4}})
		})
	}
}

// TestWireUnreleasedMessageStaysValid: Release is an optimisation only. A
// message that is never released must be untouched by the link's later
// traffic, released or not.
func TestWireUnreleasedMessageStaysValid(t *testing.T) {
	for _, tr := range wireNetworks {
		t.Run(tr.name, func(t *testing.T) {
			a, b := pair(t, tr.net)
			first := Message{Kind: "first", Vectors: [][]float64{{1, 2, 3, 4}}, Scalars: map[string]float64{"loss": 7}}
			if err := a.Send("b", first); err != nil {
				t.Fatal(err)
			}
			held := recvOrFatal(t, b)
			for i := 0; i < 100; i++ {
				if err := a.Send("b", Message{Kind: "later", Round: i, Vectors: [][]float64{{9, 9, 9, 9}}, Scalars: map[string]float64{"loss": 9}}); err != nil {
					t.Fatal(err)
				}
				if got := recvOrFatal(t, b); i%2 == 0 {
					got.Release()
				}
			}
			sameBits(t, held, first)
		})
	}
}

// TestWireReleaseIsSafe covers the misuse Release must tolerate: twice, on
// a message no transport delivered, through a stale copy after the buffer
// has moved on, and re-sending a received message (the benchmark's echo).
func TestWireReleaseIsSafe(t *testing.T) {
	Message{}.Release()
	Message{Vectors: [][]float64{{1}}}.Release()
	for _, tr := range wireNetworks {
		t.Run(tr.name, func(t *testing.T) {
			a, b := pair(t, tr.net)
			send := func(x float64) {
				t.Helper()
				if err := a.Send("b", Message{Kind: "k", Vectors: [][]float64{{x, x}}}); err != nil {
					t.Fatal(err)
				}
			}
			send(1)
			stale := recvOrFatal(t, b)
			stale.Release()
			stale.Release()
			send(2)
			second := recvOrFatal(t, b) // reuses the released buffer
			stale.Release()             // must not free it under second
			send(3)
			third := recvOrFatal(t, b)
			sameBits(t, second, Message{Kind: "k", Vectors: [][]float64{{2, 2}}})
			sameBits(t, third, Message{Kind: "k", Vectors: [][]float64{{3, 3}}})

			// Echo: a received message is sent on, then released.
			if err := b.Send("a", third); err != nil {
				t.Fatal(err)
			}
			third.Release()
			sameBits(t, recvOrFatal(t, a), Message{Kind: "k", Vectors: [][]float64{{3, 3}}})
		})
	}
}

// TestRecvTimeoutDrainsBeforeClosed: a message queued before Close is still
// delivered by RecvTimeout — the only receive the cluster calls — and only
// then is the closure reported.
func TestRecvTimeoutDrainsBeforeClosed(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		a, b := pair(t, wireNetworks[1].net)
		if err := a.Send("b", Message{Kind: "last", Round: 5}); err != nil {
			t.Fatal(err)
		}
		be := b.(*tcpEndpoint)
		for deadline := time.Now().Add(5 * time.Second); len(be.ch) == 0; {
			if time.Now().After(deadline) {
				t.Fatal("message never reached the inbox")
			}
			time.Sleep(time.Millisecond)
		}
		b.Close()
		got, err := b.RecvTimeout(time.Second)
		if err != nil || got.Round != 5 {
			t.Fatalf("queued message after Close: %+v, %v", got, err)
		}
		if _, err := b.RecvTimeout(time.Second); !errors.Is(err, ErrClosed) {
			t.Errorf("empty closed endpoint: err = %v, want ErrClosed", err)
		}
	})
	t.Run("memory", func(t *testing.T) {
		n := NewMemoryNetwork()
		a, b := mustEndpoint(t, n, "a"), mustEndpoint(t, n, "b")
		if err := a.Send("b", Message{Kind: "last", Round: 5}); err != nil {
			t.Fatal(err)
		}
		n.Close()
		got, err := b.RecvTimeout(time.Second)
		if err != nil || got.Round != 5 {
			t.Fatalf("queued message after Close: %+v, %v", got, err)
		}
		if _, err := b.RecvTimeout(time.Second); !errors.Is(err, ErrClosed) {
			t.Errorf("empty closed hub: err = %v, want ErrClosed", err)
		}
	})
}

// header builds a frame header for the malformed-input table.
func header(magic uint32, version, flags byte, nvec, nscalar, reserved uint16, size uint32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, magic)
	b = append(b, version, flags)
	b = le.AppendUint16(b, nvec)
	b = le.AppendUint16(b, nscalar)
	b = le.AppendUint16(b, reserved)
	b = le.AppendUint64(b, 1)
	return le.AppendUint32(b, size)
}

// decodeBytes decodes one frame from raw under a body cap.
func decodeBytes(raw []byte, limit int) (Message, error) {
	return newDecoder(bytes.NewReader(raw), limit).decode()
}

// TestDecodeRejectsMalformed: every bad header or inconsistent length is an
// ErrFrame, raised before the field sizes anything.
func TestDecodeRejectsMalformed(t *testing.T) {
	str := func(s string) []byte {
		return append(binary.LittleEndian.AppendUint16(nil, uint16(len(s))), s...)
	}
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	names := bytes.Join([][]byte{str("a"), str("b"), str("k")}, nil) // 9 bytes
	body := func(parts ...[]byte) []byte { return bytes.Join(append([][]byte{names}, parts...), nil) }
	frame := func(flags byte, nvec, nscalar uint16, body []byte) []byte {
		return append(header(frameMagic, frameVersion, flags, nvec, nscalar, 0, uint32(len(body))), body...)
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"wrong magic", header(0xdeadbeef, frameVersion, 0, 0, 0, 0, 9)},
		{"gob stream", append([]byte{0x3f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 'M', 'e', 's', 's', 'a', 'g', 'e'}, make([]byte, 16)...)},
		{"wrong version", header(frameMagic, frameVersion+1, 0, 0, 0, 0, 9)},
		{"unknown flag", header(frameMagic, frameVersion, 0x82, 0, 0, 0, 9)},
		{"reserved set", header(frameMagic, frameVersion, 0, 0, 0, 1, 9)},
		{"too many vectors", header(frameMagic, frameVersion, 0, maxFrameVectors+1, 0, 0, 9)},
		{"too many scalars", header(frameMagic, frameVersion, flagScalars, 0, maxFrameScalars+1, 0, 9)},
		{"scalars without flag", header(frameMagic, frameVersion, 0, 0, 1, 0, 9)},
		{"body over cap", header(frameMagic, frameVersion, 0, 1, 0, 0, 1<<20+1)},
		{"body over 2^31", header(frameMagic, frameVersion, 0, 1, 0, 0, 0xffffffff)},
		{"string over cap", frame(0, 0, 0, append(binary.LittleEndian.AppendUint16(nil, maxFrameString+1), make([]byte, maxFrameString+1)...))},
		{"string past body", append(header(frameMagic, frameVersion, 0, 0, 0, 0, 4), str("abcdef")...)},
		{"vector past body", frame(0, 1, 0, body(u32(1000), f64(1)))},
		{"vector sum overflow", frame(0, 2, 0, body(u32(0xffffffff), u32(0xffffffff), f64(1)))},
		{"trailing bytes", frame(0, 1, 0, body(u32(1), f64(1), f64(2)))},
		{"unsorted scalars", frame(flagScalars, 0, 2, body(str("b"), f64(1), str("a"), f64(2)))},
		{"duplicate scalars", frame(flagScalars, 0, 2, body(str("a"), f64(1), str("a"), f64(2)))},
	}
	for _, tc := range cases {
		if msg, err := decodeBytes(tc.raw, 1<<20); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: decoded %+v, err %v; want ErrFrame", tc.name, msg, err)
		}
	}
	// The builders above do produce a valid frame when nothing is wrong.
	msg, err := decodeBytes(frame(flagScalars, 1, 1, body(str("loss"), f64(3), u32(2), f64(1), f64(2))), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, msg, Message{Kind: "k", Round: 1, Vectors: [][]float64{{1, 2}}, Scalars: map[string]float64{"loss": 3}})
}

// TestDecodeTruncatedAtEveryByte cuts a small frame after every prefix: the
// decoder must report the cut — io.EOF only at the frame boundary — and
// never hand out a message.
func TestDecodeTruncatedAtEveryByte(t *testing.T) {
	raw := encodeToBytes(t, Message{From: "a", To: "b", Kind: "k", Round: 2,
		Vectors: [][]float64{{1, 2}, {3}}, Scalars: map[string]float64{"loss": 4}})
	for k := 0; k < len(raw); k++ {
		msg, err := decodeBytes(raw[:k], maxFrameBytes)
		want := io.ErrUnexpectedEOF
		if k == 0 {
			want = io.EOF
		}
		if err != want {
			t.Errorf("cut at %d of %d: got %+v, err %v; want %v", k, len(raw), msg, err, want)
		}
	}
	if _, err := decodeBytes(raw, maxFrameBytes); err != nil {
		t.Fatal(err)
	}
}

// TestTCPTornConnectionsDeliverNothing plays the same cuts against a live
// endpoint: a peer that dies after k bytes of a frame, for every k, leaves
// the receiver with silence, and whole frames before the cut still arrive.
func TestTCPTornConnectionsDeliverNothing(t *testing.T) {
	tn := NewTCPNetwork()
	defer tn.Close()
	b := mustEndpoint(t, tn, "b")
	addr, err := tn.lookup("b")
	if err != nil {
		t.Fatal(err)
	}
	whole := encodeToBytes(t, Message{From: "a", To: "b", Kind: "whole", Round: 1, Vectors: [][]float64{{1}}})
	torn := encodeToBytes(t, Message{From: "a", To: "b", Kind: "torn", Round: 2,
		Vectors: [][]float64{{1, 2}, {3}}, Scalars: map[string]float64{"loss": 4}})
	for k := 0; k < len(torn); k++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(append([]byte(nil), whole...), torn[:k]...)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if got := recvOrFatal(t, b); got.Kind != "whole" {
			t.Fatalf("cut at %d: received %q", k, got.Kind)
		}
	}
	// Close joins every read loop, so anything a torn frame produced would
	// be queued by now.
	b.Close()
	if msg, err := b.RecvTimeout(time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("a torn frame produced %+v (err %v)", msg, err)
	}
}

// TestWireSteadyStateAllocs pins the point of the link-owned buffers: a
// report-sized ping-pong that releases what it receives allocates nothing
// once each link has its buffer, on either transport.
func TestWireSteadyStateAllocs(t *testing.T) {
	for _, tr := range wireNetworks[:2] {
		t.Run(tr.name, func(t *testing.T) {
			a, b := pair(t, tr.net)
			msg := reportMessage()
			trip := func() {
				if err := a.Send("b", msg); err != nil {
					t.Fatal(err)
				}
				echo := recvOrFatal(t, b)
				if err := b.Send("a", echo); err != nil {
					t.Fatal(err)
				}
				echo.Release()
				recvOrFatal(t, a).Release()
			}
			trip() // connections dialled, one buffer per link, timers parked
			if n := testing.AllocsPerRun(50, trip); n != 0 {
				t.Errorf("%v allocations per report round trip, want 0", n)
			}
		})
	}
}

// TestTCPConnectionFootprint pins what a connection stages: a fresh TCP
// connection's first report-sized send and receive ([y, x], 2 × 15 380
// values) allocates, beyond the frame the values land in, only the
// connection itself and its prefix-sized buffers — at most 16 kB. With
// 64 kB buffers on both sides it was 135 kB. Only the module's own
// allocations count (allocprobe), not the poller's or the runtime's.
func TestTCPConnectionFootprint(t *testing.T) {
	msg := reportMessage()
	msg.Vectors = msg.Vectors[:2]
	// A first connection sets up what the process keeps for every later one
	// (the poller, the net package's lazy state).
	warm, echo := pair(t, wireNetworks[1].net)
	if err := warm.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	recvOrFatal(t, echo).Release()

	// The frame as the heap counts it: a large object takes whole pages.
	_, frameBytes := allocprobe.Own(func() { new(frame).size(2, 2*reportDim) })

	a, b := pair(t, wireNetworks[1].net)
	var got Message
	_, grew := allocprobe.Own(func() {
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
		got = recvOrFatal(t, b)
	})
	sameBits(t, got, msg)
	t.Logf("first send and receive: %.0f bytes beyond the %.0f-byte frame", grew-frameBytes, frameBytes)
	if grew > frameBytes+16<<10 {
		t.Errorf("the first send and receive allocated %.0f bytes beyond the %.0f-byte frame, want at most %d",
			grew-frameBytes, frameBytes, 16<<10)
	}
}

// FuzzDecodeFrame: arbitrary bytes decode to a Message or fail with ErrFrame
// or a truncation error — never a panic, never an allocation sized past the
// body cap — and an accepted frame re-encodes to the bytes it came from.
func FuzzDecodeFrame(f *testing.F) {
	report := encodeToBytes(f, Message{From: "worker-0-1", To: "edge-0", Kind: "tier-report", Round: 4,
		Vectors: [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {0, 0, 0}}, Scalars: map[string]float64{"loss": 0.5}})
	f.Add(report)
	f.Add(report[:len(report)-11])
	f.Add(header(frameMagic, frameVersion, 0, 4, 0, 0, 0xfffffff0))
	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, err := decodeBytes(raw, limit)
		runtime.ReadMemStats(&after)
		// The decoder's fixed cost is its buffered reader and length table;
		// what the input can add is bounded by the body cap.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*wireBufSize+2*limit {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrFrame) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("unexpected error type: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := encodeFrame(bufio.NewWriter(&buf), &msg); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if n := buf.Len(); n > len(raw) || !bytes.Equal(buf.Bytes(), raw[:n]) {
			t.Fatalf("re-encoding differs from the accepted bytes")
		}
	})
}

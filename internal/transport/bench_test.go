package transport

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"
)

// reportShape is the benchmark workload's leaf report: four vectors of the
// logistic model's dimension and one scalar.
const reportDim = 15380

func reportMessage() Message {
	msg := Message{From: "worker-0-1", To: "edge-0", Kind: "tier-report", Round: 42,
		Vectors: make([][]float64, 4), Scalars: map[string]float64{"loss": 0.25}}
	for i := range msg.Vectors {
		msg.Vectors[i] = make([]float64, reportDim)
		for j := range msg.Vectors[i] {
			msg.Vectors[i][j] = float64(i*reportDim+j) * 1e-3
		}
	}
	return msg
}

// encodeToBytes returns msg's frame.
func encodeToBytes(tb testing.TB, msg Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := encodeFrame(bufio.NewWriterSize(&buf, wireBufSize), &msg); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkFrameEncode(b *testing.B) {
	msg := reportMessage()
	w := bufio.NewWriterSize(io.Discard, wireBufSize)
	b.SetBytes(int64(len(encodeToBytes(b, msg))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := encodeFrame(w, &msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode, like the round trips below, runs one untimed
// iteration first, so the link's buffer (and the TCP connections) exist
// before the timer starts: at the gate's fixed -benchtime=200x a one-off
// 492 kB buffer would otherwise read as 2.5 kB/op against a baseline of zero.
func BenchmarkFrameDecode(b *testing.B) {
	raw := encodeToBytes(b, reportMessage())
	src := bytes.NewReader(raw)
	dec := newDecoder(src, maxFrameBytes)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		src.Reset(raw)
		dec.r.Reset(src)
		msg, err := dec.decode()
		if err != nil {
			b.Fatal(err)
		}
		msg.Release()
	}
}

// BenchmarkRoundTrip is a report-sized ping-pong with Release: one report
// each way per iteration.
func BenchmarkRoundTrip(b *testing.B) {
	for _, tr := range []struct {
		name string
		net  func() Network
	}{
		{"memory", func() Network { return NewMemoryNetwork() }},
		{"tcp", func() Network { return NewTCPNetwork() }},
	} {
		b.Run(tr.name, func(b *testing.B) {
			net := tr.net()
			defer net.Close()
			ping, pong := mustEndpoint(b, net, "ping"), mustEndpoint(b, net, "pong")
			defer ping.Close()
			defer pong.Close()
			msg := reportMessage()
			done := make(chan error, 1)
			go func() {
				for {
					got, err := pong.Recv()
					if err != nil {
						done <- nil // closed: the benchmark is over
						return
					}
					// Released before the reply, as the cluster's nodes do: the
					// buffer is back on its link before the peer can send again,
					// so the link never needs a second one.
					got.Release()
					if err := pong.Send("ping", msg); err != nil {
						done <- err
						return
					}
				}
			}()
			b.SetBytes(2 * 8 * 4 * reportDim)
			b.ReportAllocs()
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				if err := ping.Send("pong", msg); err != nil {
					b.Fatal(err)
				}
				back, err := ping.RecvTimeout(10 * time.Second)
				if err != nil {
					b.Fatal(err)
				}
				back.Release()
			}
			b.StopTimer()
			pong.Close()
			net.Close()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

func mustEndpoint(tb testing.TB, net Network, id string) Endpoint {
	tb.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		tb.Fatal(err)
	}
	return ep
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"hieradmo/internal/dataset"
	"hieradmo/internal/model"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// All measurement is from outside the program: the decorators below wrap the
// two seams the runtime already takes as interfaces (model.Model and
// cluster.Network/transport.Endpoint). On timed reps only the network
// wrapper is installed, with no span log: it counts traffic and timestamps
// deliveries. On the traced rep both decorators record one span per call.

type spanKind uint8

const (
	spanLossGrad spanKind = iota
	spanPredict
	spanSend
	spanRecv
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"model.lossgrad", "model.predict", "transport.send", "transport.recv"}

// span is one decorated call. Times are nanoseconds after the run span's
// start. Transport spans also carry the node, message kind, round and
// payload bytes; ok is false for a receive that returned an error (a wait
// that delivered nothing).
type span struct {
	kind       spanKind
	ok         bool
	node       int32
	round      int32
	start, end int64
	bytes      int64
	msgKind    string
}

// spanLog is a preallocated span buffer many goroutines append to without
// locking or allocating: a slot is reserved with one atomic add.
type spanLog struct {
	t0    time.Time
	next  atomic.Int64
	spans []span
}

// spanCapacity holds the ~20k spans of the largest traced rep several times
// over; overflow is counted, never grown into.
const spanCapacity = 1 << 17

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, spanCapacity)} }

func (l *spanLog) add(s span) {
	if i := l.next.Add(1) - 1; i < int64(len(l.spans)) {
		l.spans[i] = s
	}
}

func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.t0)) }

func (l *spanLog) recorded() []span {
	n := l.next.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

func (l *spanLog) dropped() int64 {
	if d := l.next.Load() - int64(len(l.spans)); d > 0 {
		return d
	}
	return 0
}

// tracedModel records a span around every LossGrad and Predict call.
type tracedModel struct {
	model.Model
	log *spanLog
}

func (m *tracedModel) LossGrad(params tensor.Vector, batch []dataset.Sample, grad tensor.Vector) (float64, error) {
	start := now()
	loss, err := m.Model.LossGrad(params, batch, grad)
	m.log.add(span{kind: spanLossGrad, ok: err == nil, node: -1, start: m.log.at(start), end: m.log.at(now())})
	return loss, err
}

func (m *tracedModel) Predict(params tensor.Vector, x tensor.Vector) (int, error) {
	start := now()
	class, err := m.Model.Predict(params, x)
	m.log.add(span{kind: spanPredict, ok: err == nil, node: -1, start: m.log.at(start), end: m.log.at(now())})
	return class, err
}

// probeNet is the pass-through cluster.Network every cluster rep runs over.
// Traffic totals come from the program's own transport.CountingNetwork; the
// wrapper adds per-endpoint delivery timestamps and, when log is set, spans.
type probeNet struct {
	counting *transport.CountingNetwork
	log      *spanLog
	start    time.Time
	eps      []*probeEndpoint
}

func newProbeNet(inner transport.Network, log *spanLog) *probeNet {
	return &probeNet{counting: transport.NewCountingNetwork(inner), log: log}
}

// Endpoint is called by cluster.Run for every node before any node starts,
// so eps is in creation order and needs no lock.
func (n *probeNet) Endpoint(id string) (transport.Endpoint, error) {
	ep, err := n.counting.Endpoint(id)
	if err != nil {
		return nil, err
	}
	p := &probeEndpoint{Endpoint: ep, net: n, node: int32(len(n.eps)), deliveries: make([]int64, 0, 256)}
	n.eps = append(n.eps, p)
	return p, nil
}

func (n *probeNet) Close() error { return n.counting.Close() }

// SetTelemetry keeps the wrapped network's live fault counters reachable.
func (n *probeNet) SetTelemetry(sink *telemetry.Sink) { n.counting.SetTelemetry(sink) }

// leafTicks returns the delivery times (ns after start) at leaf 0: the
// first-created endpoint all of whose messages came from one sender. A
// training leaf hears only from its parent, every aggregating node from
// several children, so the rule needs no node naming scheme. Each delivery
// is the leaf-parent's update closing one leaf round.
func (n *probeNet) leafTicks() []int64 {
	for _, ep := range n.eps {
		if len(ep.deliveries) > 0 && !ep.manySenders {
			return ep.deliveries
		}
	}
	return nil
}

// probeEndpoint decorates one node's endpoint. Only the owning node's
// goroutine receives on an endpoint, so the delivery record is unshared
// until cluster.Run has returned.
type probeEndpoint struct {
	transport.Endpoint
	net         *probeNet
	node        int32
	sender      string
	manySenders bool
	deliveries  []int64
}

// payloadBytes is the size of a span's message body: 8 bytes per float in
// its vectors and scalars. (Run totals come from CountingNetwork, which
// also counts the header strings.)
func payloadBytes(msg *transport.Message) int64 {
	n := int64(8 * len(msg.Scalars))
	for _, v := range msg.Vectors {
		n += int64(8 * len(v))
	}
	return n
}

func (e *probeEndpoint) Send(to string, msg transport.Message) error {
	log := e.net.log
	if log == nil {
		return e.Endpoint.Send(to, msg)
	}
	start := now()
	err := e.Endpoint.Send(to, msg)
	log.add(span{kind: spanSend, ok: err == nil, node: e.node, round: int32(msg.Round),
		start: log.at(start), end: log.at(now()), bytes: payloadBytes(&msg), msgKind: msg.Kind})
	return err
}

func (e *probeEndpoint) Recv() (transport.Message, error) {
	start := now()
	msg, err := e.Endpoint.Recv()
	e.received(start, &msg, err)
	return msg, err
}

func (e *probeEndpoint) RecvTimeout(d time.Duration) (transport.Message, error) {
	start := now()
	msg, err := e.Endpoint.RecvTimeout(d)
	e.received(start, &msg, err)
	return msg, err
}

func (e *probeEndpoint) received(start time.Time, msg *transport.Message, err error) {
	end := now()
	if err == nil {
		if e.sender == "" {
			e.sender = msg.From
		} else if e.sender != msg.From {
			e.manySenders = true
		}
		e.deliveries = append(e.deliveries, int64(end.Sub(e.net.start)))
	}
	if log := e.net.log; log != nil {
		log.add(span{kind: spanRecv, ok: err == nil, node: e.node, round: int32(msg.Round),
			start: log.at(start), end: log.at(end), bytes: payloadBytes(msg), msgKind: msg.Kind})
	}
}

// spanTotals are the per-kind figures the per-layer metrics are read from.
type spanTotals struct {
	// sum is the seconds inside the calls, added up over every goroutine.
	sum [numSpanKinds]float64
	// typical is all calls at the median call time. The workloads run 8 to
	// 15 node goroutines on GOMAXPROCS cores, so a call preempted
	// mid-flight carries the time its goroutine then waited for a core;
	// for calls of one size (a batch-8 gradient, one prediction) calls ×
	// median is the layer's compute time without that wait.
	typical [numSpanKinds]float64
	// calls counts the calls that returned without error.
	calls [numSpanKinds]int
}

func totalSpans(spans []span) spanTotals {
	var t spanTotals
	var durations [numSpanKinds][]float64
	for i := range spans {
		s := &spans[i]
		d := float64(s.end-s.start) / 1e9
		durations[s.kind] = append(durations[s.kind], d)
		t.sum[s.kind] += d
		if s.ok {
			t.calls[s.kind]++
		}
	}
	for kind, ds := range durations {
		if len(ds) > 0 {
			t.typical[kind] = median(ds) * float64(len(ds))
		}
	}
	return t
}

// covered returns the length of the union of the spans' intervals, clipped
// to [0, limit]: the part of the run some decorated call was in flight.
func covered(spans []span, limit int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for i := range spans {
		iv = append(iv, [2]int64{spans[i].start, spans[i].end})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, hi int64
	for _, x := range iv {
		lo, end := x[0], x[1]
		if lo < hi {
			lo = hi
		}
		if end > limit {
			end = limit
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return total
}

// traceRecord is one line of trace_<workload>.jsonl.
type traceRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us,omitempty"`
	Node    string  `json:"node,omitempty"`
	Kind    string  `json:"kind,omitempty"`
	Round   int     `json:"round,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	Failed  bool    `json:"failed,omitempty"`
}

// Fixed ids of the structural spans; call spans are numbered after them.
const (
	idWorkload = iota + 1
	idBuildConfig
	idWarmup
	idRep
	idRun
	idFirstCall
)

// phaseTimes places the structural spans. All times are seconds after the
// workload span's start.
type phaseTimes struct {
	buildEnd, warmupEnd, repStart, runStart, runEnd, repEnd float64
}

// writeTrace writes the traced rep as JSONL: workload > {setup.build_config,
// setup.warmup, rep > run > one span per decorated call}. The run span's
// self time is its duration minus the union its children cover.
func writeTrace(path, name string, ph phaseTimes, log *spanLog, nodes []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := log.recorded()
	runNs := int64((ph.runEnd - ph.runStart) * 1e9)
	us := func(sec float64) float64 { return sec * 1e6 }
	runAt := func(ns int64) float64 { return us(ph.runStart) + float64(ns)/1e3 }

	records := []traceRecord{
		{ID: idWorkload, Name: "workload:" + name, EndUs: us(ph.repEnd)},
		{ID: idBuildConfig, Parent: idWorkload, Name: "setup.build_config", EndUs: us(ph.buildEnd)},
		{ID: idWarmup, Parent: idWorkload, Name: "setup.warmup", StartUs: us(ph.buildEnd), EndUs: us(ph.warmupEnd)},
		{ID: idRep, Parent: idWorkload, Name: "rep", StartUs: us(ph.repStart), EndUs: us(ph.repEnd)},
		{ID: idRun, Parent: idRep, Name: "run", StartUs: us(ph.runStart), EndUs: us(ph.runEnd),
			SelfUs: float64(runNs-covered(spans, runNs)) / 1e3},
	}
	for i := range records {
		if err = enc.Encode(&records[i]); err != nil {
			break
		}
	}
	for i := range spans {
		if err != nil {
			break
		}
		s := &spans[i]
		rec := traceRecord{ID: idFirstCall + i, Parent: idRun, Name: spanNames[s.kind],
			StartUs: runAt(s.start), EndUs: runAt(s.end), Failed: !s.ok}
		if s.node >= 0 {
			rec.Node, rec.Kind, rec.Round, rec.Bytes = nodes[s.node], s.msgKind, int(s.round), s.bytes
		}
		err = enc.Encode(&rec)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

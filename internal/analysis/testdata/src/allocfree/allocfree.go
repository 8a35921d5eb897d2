// Package allocfree is the golden corpus for the allocfree checker:
// functions pinned as hot roots (and every function they reach) must
// not allocate — with cap-guarded growth, early returns, and
// pointer-shaped interface arguments recognized as non-allocating.
package allocfree

import "fmt"

// sink is an observer interface; passing a pointer into note is free,
// passing a value boxes it.
type sink interface{ note(v any) }

// recorder is sink's loaded implementation; its note does not allocate.
type recorder struct{ last any }

func (r *recorder) note(v any) { r.last = v }

// Engine carries the preallocated working buffer the hot loop reuses.
type Engine struct {
	buf []float64
	s   sink
}

// Step is pinned: its make is a direct hot allocation site.
func Step(dst []float64) {
	tmp := make([]float64, len(dst)) // want "allocfree.Step is a pinned allocation-free hot path: make"
	copy(dst, tmp)
}

// Tick is pinned: fill allocates transitively, and the int crosses the
// sink's interface parameter by boxing.
func (e *Engine) Tick(dst []float64) {
	fill(dst)          // want "allocfree.Engine..Tick is a pinned allocation-free hot path: call allocates .allocfree.fill: make"
	e.s.note(len(dst)) // want "argument int boxed into interface parameter"
}

// fill is not pinned itself; its make only matters because a hot root
// reaches it.
func fill(dst []float64) {
	pad := make([]float64, len(dst))
	copy(dst, pad)
}

// Scale is pinned and stays clean: the early error return is cold, the
// cap-guarded growth is amortized, and the *Engine handed to the sink
// is pointer-shaped (stored in the interface word, no allocation).
func Scale(s sink, e *Engine, dst []float64, k float64) error {
	if len(dst) == 0 {
		return fmt.Errorf("allocfree: empty dst")
	}
	if cap(e.buf) < len(dst) {
		e.buf = make([]float64, len(dst))
	}
	e.buf = e.buf[:len(dst)]
	for i, v := range dst {
		e.buf[i] = k * v
	}
	s.note(e)
	copy(dst, e.buf)
	return nil
}

// Mix is pinned: appending into a slice that starts nil grows it on the
// hot path, while appending into the caller-provided dst is the
// caller's capacity to manage and passes.
func Mix(dst []float64, vs []float64) []float64 {
	var doubled []float64
	for _, v := range vs {
		doubled = append(doubled, 2*v) // want "allocfree.Mix is a pinned allocation-free hot path: append grows"
	}
	dst = append(dst, doubled...)
	return dst
}

// Clone is pinned: the tail call must not hide its callee's allocation —
// the final return is still the hot path.
func Clone(src []float64) []float64 {
	return build(src) // want "allocfree.Clone is a pinned allocation-free hot path: call allocates .allocfree.build: make"
}

func build(src []float64) []float64 {
	out := make([]float64, len(src))
	copy(out, src)
	return out
}

// Warm is pinned; its warmup allocation is explicitly allowed with a
// reasoned directive.
func Warm(n int) []float64 {
	//flvet:allow allocfree -- one-time warmup buffer, not in the round loop
	w := make([]float64, n)
	return w
}

// lender lends out the free tail of its buffer, the way a buffered writer
// does.
type lender struct{ buf []byte }

func (l *lender) free() []byte { return l.buf[len(l.buf):] }

func (l *lender) write(b []byte) { l.buf = l.buf[:len(l.buf)+len(b)] }

// Frame is pinned and stays clean — the wire codec's shape: keys are
// sorted in a fixed-size array on the stack, and the bytes are appended
// into space the writer lends out (a call result, whose capacity is the
// lender's to manage) and handed back. Spilling the keys into a slice
// that starts nil is the same loop done wrong.
func Frame(l *lender, scalars map[string]float64) {
	var keyBuf [8]string
	keys := keyBuf[:0]
	var spill []string
	for k := range scalars {
		i := len(keys)
		keys = keys[:i+1]
		for ; i > 0 && keys[i-1] > k; i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
		spill = append(spill, k) // want "allocfree.Frame is a pinned allocation-free hot path: append grows"
	}
	b := l.free()
	for _, k := range keys {
		b = append(b, byte(len(k)), byte(scalars[k]))
	}
	l.write(b)
	_ = spill
}

// snapshot is the checkpoint encoder's shape: a buffer the owner keeps and
// reuses across saves.
type snapshot struct {
	buf  []byte
	vals []float64
}

// section is pinned and stays clean — the room for a vector is claimed in
// one step behind a cap guard and filled in place, and the reslice of the
// owned buffer (the []byte conversion included) hands back the same storage.
func (s *snapshot) section(v []float64) {
	off := len(s.buf)
	if cap(s.buf) < off+8*len(v) {
		s.buf = append(make([]byte, 0, 2*(off+8*len(v))), s.buf...)
	}
	s.buf = s.buf[:off+8*len(v)]
	for i, x := range v {
		s.buf[off+8*i] = byte(x)
	}
	s.buf = append([]byte(s.buf), 0)
}

// copied is pinned: append([]T(nil), v...) is the copy idiom — the nil
// conversion owns nothing, so every call allocates a backing array the size
// of v, whether the result is kept in a field or in a local.
func (s *snapshot) copied(v []float64) int {
	s.vals = append([]float64(nil), v...) // want "allocfree.snapshot..copied is a pinned allocation-free hot path: append grows"
	tmp := append([]float64(nil), v...)   // want "allocfree.snapshot..copied is a pinned allocation-free hot path: append grows"
	return len(tmp)
}

// Combine's implementations are pinned through the Agg interface row of
// the policy, not by concrete name.
type Agg interface {
	Combine(dst []float64, parts [][]float64)
}

type mean struct{}

func (m *mean) Combine(dst []float64, parts [][]float64) {
	acc := make([]float64, len(dst)) // want "allocfree.mean..Combine is a pinned allocation-free hot path: make"
	for _, p := range parts {
		for i, v := range p {
			acc[i] += v
		}
	}
	copy(dst, acc)
}

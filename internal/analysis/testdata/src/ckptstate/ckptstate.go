// Package ckptstate is the golden corpus for the ckptstate checker:
// every mutable stateful field of a struct that registers checkpoint
// state must itself be covered by a registration call. The corpus
// Registry mirrors internal/checkpoint.Registry's five primitives.
package ckptstate

// Gen is the corpus RNG-handle type; the checker learns it from the
// Registry.RNG primitive's parameter.
type Gen struct{ state uint64 }

// Uint64 advances the stream.
func (g *Gen) Uint64() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return g.state
}

// Registry mimics the five registration primitives of the real
// checkpoint registry; the corpus policy pins this type.
type Registry struct{ n int }

// Vector registers a float64 slice.
func (r *Registry) Vector(name string, v []float64) { r.n++ }

// RNG registers a generator handle.
func (r *Registry) RNG(name string, g *Gen) { r.n++ }

// Int registers a scalar counter.
func (r *Registry) Int(name string, p *int) { r.n++ }

// Float registers a scalar.
func (r *Registry) Float(name string, p *float64) { r.n++ }

// Dynamic registers an opaque blob codec.
func (r *Registry) Dynamic(name string, fn func() []byte) { r.n++ }

// good registers every stateful field: the clean shape.
type good struct {
	x      []float64
	r      *Gen
	rounds int
}

func (g *good) initCheckpoint(reg *Registry) {
	reg.Vector("x", g.x)
	reg.RNG("r", g.r)
	reg.Int("rounds", &g.rounds)
}

func (g *good) step() {
	g.rounds++
	g.x[0] += float64(g.r.Uint64())
}

// bad registers x but forgets its other mutable state: the vector and
// the RNG handle are stateful unconditionally, the counter because step
// mutates it outside any constructor.
type bad struct {
	x     []float64
	v     []float64 // want "struct ckptstate.bad registers checkpoint state but vector-state field .v. is never registered"
	g     *Gen      // want "struct ckptstate.bad registers checkpoint state but RNG-handle field .g. is never registered"
	count int       // want "struct ckptstate.bad registers checkpoint state but counter field .count. is never registered"
}

func (b *bad) initCheckpoint(reg *Registry) {
	reg.Vector("x", b.x)
}

func (b *bad) step() {
	b.count++
	b.v[0] = b.x[0] + float64(b.g.Uint64())
}

// fixedcfg's batch is written only by its constructor: configuration,
// not mutable state, so it needs no registration.
type fixedcfg struct {
	x     []float64
	batch int
}

func newFixedcfg(n int) *fixedcfg {
	f := &fixedcfg{x: make([]float64, n)}
	f.batch = n
	return f
}

func (f *fixedcfg) initCheckpoint(reg *Registry) {
	reg.Vector("x", f.x)
}

// forwarder re-exposes a registration primitive under the same name;
// the checker detects it by fixpoint, so registrations routed through
// it still count — and still make the caller's struct audited.
type forwarder struct{ reg *Registry }

// Vector forwards to the underlying registry.
func (c *forwarder) Vector(name string, v []float64) { c.reg.Vector(name, v) }

type viaFwd struct {
	y []float64
	z []float64 // want "struct ckptstate.viaFwd registers checkpoint state but vector-state field .z. is never registered"
}

func (s *viaFwd) initCheckpoint(c *forwarder) {
	c.Vector("y", s.y)
}

func (s *viaFwd) step() { s.z[0] = s.y[0] }

// scratchy's tmp is deliberately unregistered scratch, escaped with a
// reasoned directive.
type scratchy struct {
	x   []float64
	tmp []float64 //flvet:allow ckptstate -- per-step scratch, overwritten before use
}

func (s *scratchy) initCheckpoint(reg *Registry) {
	reg.Vector("x", s.x)
}

func (s *scratchy) step() {
	copy(s.tmp, s.x)
}

// plain never registers anything: structs outside the checkpoint system
// are not audited, however stateful their fields look.
type plain struct {
	buf []float64
	hit int
}

func (p *plain) bump() { p.hit++; p.buf[0] = 1 }

// built is registered by a driver that holds it in a local: chasing the
// local back to `b := newBuilt(n)` expands the constructor, whose own
// initialization of tmp must not count as registering it.
type built struct {
	x   []float64
	tmp []float64 // want "struct ckptstate.built registers checkpoint state but vector-state field .tmp. is never registered"
}

func newBuilt(n int) *built {
	b := &built{x: make([]float64, n)}
	b.tmp = make([]float64, n)
	return b
}

func driveBuilt(reg *Registry) {
	b := newBuilt(4)
	reg.Vector("x", b.x)
	copy(b.tmp, b.x)
}

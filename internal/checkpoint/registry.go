package checkpoint

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hieradmo/internal/rng"
)

// Registry binds named live training state to snapshot fields: an algorithm
// registers each persistent vector, RNG stream, and counter once, then calls
// Restore once at startup and Save after completed iterations. Names must be
// unique per kind and stable across runs (they address the state inside the
// snapshot); registration order does not matter, but the first Save or
// Restore fixes the encode order, so a duplicate or later registration makes
// both fail, every time.
//
// Vectors are captured by reference: Save encodes their current contents into
// a buffer the registry owns and reuses, and Restore copies snapshot contents
// back into the same backing arrays, so the algorithm's aliases stay intact.
type Registry struct {
	mgr         *Manager
	fingerprint string

	// vectors holds the fixed-size vectors and the dynamics, which share the
	// snapshot's vector section (a dynamic named x is the entry "dyn/x").
	vectors []binding[vector]
	rngs    []binding[*rng.RNG]
	ints    []binding[*int]
	floats  []binding[*float64]

	sealed  bool  // bindings sorted and checked; no more registrations
	err     error // first registration fault; sticky
	enc     encoder
	scratch []float64 // the dynamics' flattening space, reused across saves
}

type binding[T any] struct {
	name string
	p    T
}

// vector is a fixed vector (v) or, with save and load set, variable-size
// state (accuracy curves, message backlogs) flattened by an encode/decode pair.
type vector struct {
	v    []float64
	save func(dst []float64) []float64
	load func([]float64) error
}

// NewRegistry returns a registry persisting through mgr under fingerprint.
func NewRegistry(mgr *Manager, fingerprint string) *Registry {
	return &Registry{mgr: mgr, fingerprint: fingerprint}
}

// add takes one registration; after the first Save or Restore it is a fault.
func add[T any](g *Registry, bs []binding[T], name string, p T) []binding[T] {
	if g.sealed && g.err == nil {
		g.err = fmt.Errorf("checkpoint: %q registered after the first Save or Restore", name)
	}
	return append(bs, binding[T]{name, p})
}

// Vector registers a fixed-size float64 slice (model parameters, momentum,
// accumulators). The slice length must not change between registration and
// Save/Restore.
func (g *Registry) Vector(name string, v []float64) {
	g.vectors = add(g, g.vectors, name, vector{v: v})
}

// RNG registers a random stream whose position is captured and restored.
func (g *Registry) RNG(name string, r *rng.RNG) { g.rngs = add(g, g.rngs, name, r) }

// Int registers an integer counter.
func (g *Registry) Int(name string, p *int) { g.ints = add(g, g.ints, name, p) }

// Float registers a scalar.
func (g *Registry) Float(name string, p *float64) { g.floats = add(g, g.floats, name, p) }

// Dynamic registers variable-size state through an encode/decode pair: save
// appends the flattened current value to dst (registry-owned scratch, reused
// across snapshots) and returns it, load rebuilds it from a restored snapshot.
func (g *Registry) Dynamic(name string, save func(dst []float64) []float64, load func([]float64) error) {
	g.vectors = add(g, g.vectors, "dyn/"+name, vector{save: save, load: load})
}

// seal fixes the encode plan on the first Save or Restore: every kind sorted
// by name, duplicates (a Vector("dyn/x") beside a Dynamic("x") included)
// refused, the encode buffer sized for everything but the dynamics' values.
func (g *Registry) seal() error {
	if !g.sealed {
		g.sealed = true
		n := 64 + len(g.fingerprint) + sealKind(g, "vector", g.vectors) + sealKind(g, "rng", g.rngs) +
			sealKind(g, "int", g.ints) + sealKind(g, "float", g.floats)
		for _, b := range g.vectors {
			n += 8 * len(b.p.v)
		}
		g.enc.buf = slices.Grow(g.enc.buf, n)
	}
	return g.err
}

// sealKind sorts and checks one kind; it returns a bound on its encoded size.
func sealKind[T any](g *Registry, kind string, bs []binding[T]) int {
	slices.SortFunc(bs, func(a, b binding[T]) int { return cmp.Compare(a.name, b.name) })
	n := 0
	for i, b := range bs {
		if i > 0 && b.name == bs[i-1].name && g.err == nil {
			g.err = fmt.Errorf("checkpoint: %s %q registered twice", kind, b.name)
		}
		n += len(b.name) + 32
	}
	return n
}

// Save snapshots every registered binding as the generation for seq (the
// last completed iteration or round); it returns once the bytes are durable.
func (g *Registry) Save(seq int) error {
	if err := g.seal(); err != nil {
		return err
	}
	snap, err := g.encode(seq)
	if err != nil {
		return err
	}
	return g.mgr.save(snap)
}

// encode lays the snapshot for seq into the registry's buffer, section by
// section, straight from the live bindings.
func (g *Registry) encode(seq int) ([]byte, error) {
	e := &g.enc
	e.begin(g.fingerprint, seq)
	e.u32(uint32(len(g.vectors)))
	for _, b := range g.vectors {
		v := b.p.v
		if b.p.save != nil {
			g.scratch = b.p.save(g.scratch[:0])
			v = g.scratch
		}
		e.vector(b.name, v)
	}
	e.u32(uint32(len(g.rngs)))
	for _, b := range g.rngs {
		e.rng(b.name, b.p.Snapshot())
	}
	e.u32(uint32(len(g.ints)))
	for _, b := range g.ints {
		e.scalar(b.name, uint64(*b.p))
	}
	e.u32(uint32(len(g.floats)))
	for _, b := range g.floats {
		e.scalar(b.name, math.Float64bits(*b.p))
	}
	return e.finish()
}

// Restore loads the newest valid snapshot generation into the registered
// bindings and returns its sequence number. With no snapshot present it
// returns (0, false, nil): start from scratch. A snapshot carrying a
// different fingerprint fails with a wrapped ErrMismatch — resuming it would
// silently train a different configuration.
func (g *Registry) Restore() (int, bool, error) {
	if err := g.seal(); err != nil {
		return 0, false, err
	}
	st, err := g.mgr.Latest()
	if err != nil {
		return 0, false, err
	}
	if st == nil {
		return 0, false, nil
	}
	if st.Fingerprint != g.fingerprint {
		return 0, false, fmt.Errorf("%w: snapshot %q vs run %q", ErrMismatch, st.Fingerprint, g.fingerprint)
	}
	for _, err := range []error{missing(g.vectors, st.Vectors, "vector"), missing(g.rngs, st.RNGs, "rng"),
		missing(g.ints, st.Ints, "int"), missing(g.floats, st.Floats, "float")} {
		if err != nil {
			return 0, false, err
		}
	}
	for _, b := range g.vectors {
		if b.p.load != nil {
			continue // dynamics load last: a decoder may read the scalars
		}
		if sv := st.Vectors[b.name]; len(sv) != len(b.p.v) {
			return 0, false, fmt.Errorf("%w: vector %q has %d elements, want %d", ErrFormat, b.name, len(sv), len(b.p.v))
		}
		copy(b.p.v, st.Vectors[b.name])
	}
	for _, b := range g.rngs {
		b.p.Restore(st.RNGs[b.name])
	}
	for _, b := range g.ints {
		*b.p = int(st.Ints[b.name])
	}
	for _, b := range g.floats {
		*b.p = st.Floats[b.name]
	}
	for _, b := range g.vectors {
		if b.p.load == nil {
			continue
		}
		if err := b.p.load(st.Vectors[b.name]); err != nil {
			return 0, false, fmt.Errorf("checkpoint: restore %q: %w", b.name, err)
		}
	}
	return st.Seq, true, nil
}

// missing reports the first binding a snapshot section has no entry for.
func missing[T, V any](bs []binding[T], section map[string]V, kind string) error {
	for _, b := range bs {
		if _, ok := section[b.name]; !ok {
			return fmt.Errorf("%w: snapshot missing %s %q", ErrFormat, kind, b.name)
		}
	}
	return nil
}

// Clear removes this registry's snapshots (a fresh start in a used directory).
func (g *Registry) Clear() error { return g.mgr.Clear() }

// Close releases the slot files the registry's Manager holds open between
// saves; idempotent, and a later Save reopens what it needs.
func (g *Registry) Close() error { return g.mgr.Close() }

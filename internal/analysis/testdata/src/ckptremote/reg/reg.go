// Package reg holds the ckptremote corpus's registry and the forwarder its
// structs register through.
package reg

// Registry mimics two of the real registry's primitives; the corpus policy
// pins this type.
type Registry struct{ n int }

// Vector registers a float64 slice.
func (r *Registry) Vector(name string, v []float64) { r.n++ }

// Int registers a scalar counter.
func (r *Registry) Int(name string, p *int) { r.n++ }

// Checkpointer forwards to a Registry, as fl.Checkpointer does.
type Checkpointer struct{ reg Registry }

// Vector forwards to the registry.
func (c *Checkpointer) Vector(name string, v []float64) { c.reg.Vector(name, v) }

// Int forwards to the registry.
func (c *Checkpointer) Int(name string, p *int) { c.reg.Int(name, p) }

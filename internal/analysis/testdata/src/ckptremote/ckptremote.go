// Package ckptremote is the ckptstate corpus for a forwarder declared in
// another package: node registers through reg.Checkpointer, whose methods
// forward to the pinned reg.Registry. The corpus run loads this package
// alone, so the checker has to load reg itself to see the forwarding;
// without it nothing here would count as registered, the missing field
// would go unreported and the directive would be unused.
package ckptremote

import "hieradmo/internal/analysis/testdata/src/ckptremote/reg"

type node struct {
	x     []float64
	v     []float64 // want "struct ckptremote.node registers checkpoint state but vector-state field .v. is never registered"
	round int       //flvet:allow ckptstate -- derived from the snapshot's sequence number
	count int
}

func (n *node) initCheckpoint(ck *reg.Checkpointer) {
	ck.Vector("x", n.x)
	ck.Int("count", &n.count)
}

func (n *node) step() {
	n.round++
	n.count++
	n.v[0] = n.x[0]
}

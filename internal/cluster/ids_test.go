package cluster

import "strconv"

// Shorthands for the derived tree's transport IDs, which the tests name
// nodes by; TestProtocolIDs holds them to the tree's own (topology.Tree.ID).

// CloudID is the cloud's ID.
const CloudID = "cloud"

// EdgeID is edge ℓ's ID.
func EdgeID(l int) string { return "edge-" + strconv.Itoa(l) }

// WorkerID is the ID of worker i of edge ℓ.
func WorkerID(l, i int) string { return "worker-" + strconv.Itoa(l) + "-" + strconv.Itoa(i) }

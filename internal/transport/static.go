package transport

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
)

// ListenStatic starts a TCP endpoint for a node whose peers live in OTHER
// processes (or machines): the node binds the address the shared registry
// assigns to its own ID and resolves peers from the same registry. This is
// the multi-process deployment path used by flcluster -node; the
// single-process TCPNetwork remains the in-process path.
//
// The registry maps node IDs to host:port strings and must contain id
// itself (that entry is the bind address).
func ListenStatic(id string, registry map[string]string) (Endpoint, error) {
	bind, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q missing from registry", ErrUnknownNode, id)
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		// An address in use means another process is live under this ID —
		// the registry assigns one address per identity, so surface the
		// typed duplicate error rather than a bare socket failure.
		if errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("%w: %q bound at %s: %v", ErrDuplicateNode, id, bind, err)
		}
		return nil, fmt.Errorf("transport: listen %q on %s: %w", id, bind, err)
	}
	// Copy the registry so later caller mutations cannot race the resolver.
	addrs := make(map[string]string, len(registry))
	for k, v := range registry {
		addrs[k] = v
	}
	ep := &tcpEndpoint{
		net:      nil,
		mailbox:  newMailbox(id, make(chan struct{})),
		ln:       ln,
		conns:    make(map[string]*tcpConn),
		accepted: make(map[net.Conn]struct{}),
		retries:  new(atomic.Int64),
		// Any node of the registry may connect: its inbound connections
		// share one list, capped as a network of the registry's endpoints.
		frames: newFrameList(len(addrs)),
		resolve: func(peer string) (string, error) {
			addr, ok := addrs[peer]
			if !ok {
				return "", fmt.Errorf("%w: %q", ErrUnknownNode, peer)
			}
			return addr, nil
		},
	}
	ep.wg.Add(1)
	go ep.acceptLoop() //flvet:allow goexec -- accept loop lives for the endpoint's lifetime; transport owns its goroutines
	return ep, nil
}

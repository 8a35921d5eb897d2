package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hieradmo/internal/telemetry"
)

// Send-side retry policy for transient TCP failures (peer restarted, broken
// pipe, a frame cut short by a failed write): the first attempt plus
// sendRetries redials with capped exponential backoff.
const (
	sendRetries     = 3
	sendBackoffBase = 10 * time.Millisecond
	sendBackoffCap  = 160 * time.Millisecond
)

// TCPNetwork runs the transport over real loopback (or LAN) sockets: every
// node listens on its own address, messages are length-prefixed binary
// frames (codec.go) written straight from the sender's vectors, and
// outbound connections are cached per destination. Each inbound connection
// decodes into buffers of its own free list (see frameList). Node addresses
// are registered on Listen, so all endpoints must be created before the
// protocol starts — which matches how the cluster coordinator works.
type TCPNetwork struct {
	mu     sync.Mutex
	addrs  map[string]string
	closed bool
	// retries aggregates send retries across all of the network's endpoints.
	retries atomic.Int64
	// sink, when set, counts send retries live (fl_send_retries_total).
	sink atomic.Pointer[telemetry.Sink]
}

// SetTelemetry mirrors send retries onto sink's counters as they happen.
// Applies to endpoints created afterwards, so call before Listen/Endpoint.
func (n *TCPNetwork) SetTelemetry(sink *telemetry.Sink) { n.sink.Store(sink) }

// FaultStats reports the send retries the network's endpoints performed.
func (n *TCPNetwork) FaultStats() FaultStats {
	return FaultStats{Retries: int(n.retries.Load())}
}

// NewTCPNetwork returns an empty TCP node registry.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{addrs: make(map[string]string)}
}

// Listen starts an endpoint for id on an ephemeral 127.0.0.1 port and
// registers its address for the other nodes.
func (n *TCPNetwork) Listen(id string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	// A TCP node ID claim lasts for the network's lifetime: the listen
	// address is published to peers on first registration, so reusing the
	// ID on a different port would silently split its traffic.
	if _, dup := n.addrs[id]; dup {
		return nil, fmt.Errorf("%w: %q already listening", ErrDuplicateNode, id)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen for %q: %w", id, err)
	}
	n.addrs[id] = ln.Addr().String()
	ep := &tcpEndpoint{
		net:      n,
		mailbox:  newMailbox(id, make(chan struct{})),
		ln:       ln,
		conns:    make(map[string]*tcpConn),
		accepted: make(map[net.Conn]struct{}),
		resolve:  n.lookup,
		retries:  &n.retries,
	}
	ep.sink.Store(n.sink.Load())
	ep.wg.Add(1)
	go ep.acceptLoop() //flvet:allow goexec -- accept loop lives for the endpoint's lifetime; transport owns its goroutines
	return ep, nil
}

// Endpoint implements the cluster.Network interface by starting a listener
// for id (each node ID gets exactly one endpoint per network).
func (n *TCPNetwork) Endpoint(id string) (Endpoint, error) { return n.Listen(id) }

// Close marks the registry closed; individual endpoints are closed by their
// owners.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	return nil
}

// lookup resolves a node ID to its listen address.
func (n *TCPNetwork) lookup(id string) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.addrs[id]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	return addr, nil
}

// tcpConn is one outbound connection; mu serialises whole frames onto w.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	w    *bufio.Writer
}

type tcpEndpoint struct {
	net *TCPNetwork // nil for static (cross-process) endpoints
	// mailbox is the receive half; its closed channel is the endpoint's
	// shutdown signal.
	*mailbox
	ln net.Listener
	// resolve maps a peer ID to its dial address (registry- or
	// network-backed).
	resolve func(id string) (string, error)

	once sync.Once
	//flvet:allow goexec -- transport-internal lifecycle tracking for accept/read loops; Close waits for them, no training data order depends on it
	wg sync.WaitGroup

	connMu   sync.Mutex
	conns    map[string]*tcpConn
	accepted map[net.Conn]struct{}
	// retries counts send attempts repeated after a transient failure
	// (shared with the owning TCPNetwork, endpoint-local for static nodes).
	retries *atomic.Int64
	// sink, when set, counts retries live on the telemetry sink too.
	sink atomic.Pointer[telemetry.Sink]
}

// SetTelemetry mirrors this endpoint's send retries onto sink's counters
// (fl_send_retries_total). Used by multi-process nodes (ListenStatic), where
// there is no owning TCPNetwork to configure.
func (e *tcpEndpoint) SetTelemetry(sink *telemetry.Sink) { e.sink.Store(sink) }

var _ Endpoint = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.connMu.Lock()
		e.accepted[conn] = struct{}{}
		e.connMu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn) //flvet:allow goexec -- one read loop per accepted conn, joined by Close via the WaitGroup
	}
}

func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.connMu.Lock()
		delete(e.accepted, conn)
		e.connMu.Unlock()
	}()
	dec := newDecoder(conn, maxFrameBytes)
	for {
		msg, err := dec.decode()
		if err != nil {
			// A closed, failed or cut-short connection and a malformed frame
			// all end the same way: the partial frame is dropped with the
			// connection, and the receiver sees silence (and hence
			// RecvTimeout), mirroring real deployments.
			return
		}
		select {
		case e.ch <- msg:
		case <-e.closed:
			return
		}
	}
}

// connTo returns the cached connection to a peer, dialing one if needed.
func (e *tcpEndpoint) connTo(to string) (*tcpConn, error) {
	e.connMu.Lock()
	c, ok := e.conns[to]
	e.connMu.Unlock()
	if ok {
		return c, nil
	}
	addr, err := e.resolve(to)
	if err != nil {
		return nil, err
	}
	// In multi-process deployments peers come up in arbitrary order, so
	// the first dial races the peer's bind; retry briefly before giving
	// up.
	var raw net.Conn
	for attempt := 0; ; attempt++ {
		raw, err = net.DialTimeout("tcp", addr, 5*time.Second)
		if err == nil {
			break
		}
		if attempt >= 40 {
			return nil, fmt.Errorf("transport: dial %q: %w", to, err)
		}
		select {
		case <-e.closed:
			return nil, ErrClosed
		case <-time.After(250 * time.Millisecond):
		}
	}
	c = &tcpConn{conn: raw, w: bufio.NewWriterSize(raw, wireBufSize)}
	e.connMu.Lock()
	if existing, dup := e.conns[to]; dup {
		raw.Close()
		c = existing
	} else {
		e.conns[to] = c
	}
	e.connMu.Unlock()
	return c, nil
}

// dropConn evicts a connection after a send failure (comparing pointers so a
// concurrent sender's replacement is never evicted) so the next attempt
// redials: a failed write may have left part of a frame on the old
// connection, which the peer drops along with it.
func (e *tcpEndpoint) dropConn(to string, c *tcpConn) {
	e.connMu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.connMu.Unlock()
	c.conn.Close()
}

func (e *tcpEndpoint) Send(to string, msg Message) error {
	msg.From, msg.To = e.id, to

	backoff := sendBackoffBase
	var lastErr error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		select {
		case <-e.closed:
			return ErrClosed
		default:
		}
		if attempt > 0 {
			if e.retries != nil {
				e.retries.Add(1)
			}
			e.sink.Load().M().SendRetries.Inc()
			select {
			case <-e.closed:
				return ErrClosed
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > sendBackoffCap {
				backoff = sendBackoffCap
			}
		}
		c, err := e.connTo(to)
		if err != nil {
			if errors.Is(err, ErrUnknownNode) || errors.Is(err, ErrClosed) {
				return err // permanent: no peer to retry against
			}
			lastErr = err
			continue
		}
		c.mu.Lock()
		err = encodeFrame(c.w, &msg)
		c.mu.Unlock()
		if err == nil || errors.Is(err, ErrFrame) {
			return err // sent, or refused before anything was written
		}
		lastErr = err
		e.dropConn(to, c)
	}
	return fmt.Errorf("transport: send to %q (after %d retries): %w", to, sendRetries, lastErr)
}

func (e *tcpEndpoint) Close() error {
	e.once.Do(func() {
		close(e.closed)
		e.ln.Close()
		e.connMu.Lock()
		for _, c := range e.conns {
			c.conn.Close()
		}
		// Inbound connections block their readLoops in Decode until closed;
		// without this, Close would wait for peers to shut down first.
		for conn := range e.accepted {
			conn.Close()
		}
		e.connMu.Unlock()
	})
	e.wg.Wait()
	return nil
}

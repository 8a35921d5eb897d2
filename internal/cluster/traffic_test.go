package cluster

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"hieradmo/internal/transport"
)

// sentMsg is the shape of one sent message: addressing, kind, vector
// lengths and scalar keys.
type sentMsg struct {
	from, to, kind string
	vecLens        []int
	keys           []string
}

// loggingNetwork records the shape of every message its endpoints send.
type loggingNetwork struct {
	transport.Network
	mu   *sync.Mutex
	sent *[]sentMsg
}

func (n loggingNetwork) Endpoint(id string) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(id)
	return loggingEndpoint{Endpoint: ep, net: n}, err
}

type loggingEndpoint struct {
	transport.Endpoint
	net loggingNetwork
}

func (e loggingEndpoint) Send(to string, msg transport.Message) error {
	if err := e.Endpoint.Send(to, msg); err != nil {
		return err
	}
	m := sentMsg{from: e.ID(), to: to, kind: msg.Kind}
	for _, v := range msg.Vectors {
		m.vecLens = append(m.vecLens, len(v))
	}
	for k := range msg.Scalars {
		m.keys = append(m.keys, k)
	}
	sort.Strings(m.keys)
	e.net.mu.Lock()
	*e.net.sent = append(*e.net.sent, m)
	e.net.mu.Unlock()
	return nil
}

// TestClusterTrafficPerKind pins what a fault-free 3-tier adaptive run puts
// on the wire, message kind by message kind, in CountingNetwork's bytes
// (8 per value, the key length plus 8 per scalar, the addressing and kind
// strings plus 8 for the round): a leaf report is [y, x] with its loss and
// its eq. (6) term — Σ∇F and Σy never leave the leaf — and every other
// message is [y, x] with at most a loss.
func TestClusterTrafficPerKind(t *testing.T) {
	cfg := buildConfig(t, 31, 2)
	dim := cfg.Model.Dim()
	var (
		mu   sync.Mutex
		sent []sentMsg
	)
	counting := transport.NewCountingNetwork(loggingNetwork{Network: transport.NewMemoryNetwork(), mu: &mu, sent: &sent})
	if _, err := Run(cfg, counting, Options{Adaptive: true}); err != nil {
		t.Fatal(err)
	}

	// The payload of each message class after its addressing: two model
	// vectors and the scalars' keys and values.
	model := int64(2 * 8 * dim)
	classes := []struct {
		name       string
		kind       string
		fromPrefix string
		keys       []string
		count      int
		payload    int64
	}{
		{"leaf report", KindTierReport, "worker-", []string{ScalarCos, ScalarLoss}, 4 * 12, model + 3 + 8 + 4 + 8},
		{"edge update", KindTierUpdate, "edge-", nil, 4 * 12, model},
		{"edge report", KindTierReport, "edge-", []string{ScalarLoss}, 2 * 6, model + 4 + 8},
		{"cloud update", KindTierUpdate, "cloud", nil, 2 * 6, model},
	}
	var total int64
	for _, c := range classes {
		n := 0
		for _, m := range sent {
			if m.kind != c.kind || !strings.HasPrefix(m.from, c.fromPrefix) {
				continue
			}
			n++
			if len(m.vecLens) != 2 || m.vecLens[0] != dim || m.vecLens[1] != dim || strings.Join(m.keys, ",") != strings.Join(c.keys, ",") {
				t.Errorf("%s %s → %s: vectors %v, scalars %v; want 2 × %d values and %v", c.name, m.from, m.to, m.vecLens, m.keys, dim, c.keys)
			}
			total += int64(len(m.from)+len(m.to)+len(m.kind)+8) + c.payload
		}
		if n != c.count {
			t.Errorf("%d %ss, want %d", n, c.name, c.count)
		}
	}
	msgs, bytes := counting.Traffic()
	if want := int64(len(sent)); msgs != want || want != 120 {
		t.Errorf("counted %d messages, logged %d, want 120", msgs, want)
	}
	if bytes != total {
		t.Errorf("counted %d bytes, want %d from the per-kind shapes", bytes, total)
	}
	// At this model's dimension (104) the run moves 205 008 bytes; with leaves
	// reporting [y, x, Σ∇F, Σy] and no term it moved 284 352.
	if dim != 104 || bytes != 205008 {
		t.Errorf("counted %d bytes at dim %d, want 205008 at 104", bytes, dim)
	}
}

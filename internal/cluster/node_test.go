package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"

	"hieradmo/internal/core"
	"hieradmo/internal/fl"
	"hieradmo/internal/transport"
)

// freePorts reserves n distinct loopback ports by binding and releasing
// them. The tiny race between release and reuse is acceptable in tests.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// runStaticNodes drives the multi-process deployment path: every node of the
// run's tree is its own RunNode call with its own harness and tree spec, on
// a static-registry TCP endpoint. It returns the root's result.
func runStaticNodes(t *testing.T, cfg *fl.Config, opts Options) *fl.Result {
	t.Helper()
	ts, err := newTreeSpec(cfg, opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, lvl := range ts.ids {
		ids = append(ids, lvl...)
	}
	ports := freePorts(t, len(ids))
	registry := make(map[string]string, len(ids))
	for i, id := range ids {
		registry[id] = ports[i]
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		result *fl.Result
	)
	for level, lvl := range ts.ids {
		for _, id := range lvl {
			ep, err := transport.ListenStatic(id, registry)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer ep.Close()
				res, err := RunNode(cfg, ep, opts)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					t.Errorf("%s: %v", id, err)
				}
				if level == 0 {
					result = res
				}
			}()
		}
	}
	wg.Wait()
	if result == nil {
		t.Fatal("root node returned no result")
	}
	return result
}

// TestStaticNodesMatchSimulation checks the per-node entry point against the
// simulation bit for bit, on the config-derived shape and its cloud / edge-ℓ
// / worker-ℓ-i registry keys.
func TestStaticNodesMatchSimulation(t *testing.T) {
	cfg := buildConfig(t, 107, 2)
	sim, err := core.New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runStaticNodes(t, cfg, Options{Adaptive: true})
	if res.FinalAcc != sim.FinalAcc {
		t.Errorf("static nodes %v != simulation %v", res.FinalAcc, sim.FinalAcc)
	}
}

// TestNodeEntryPointValidation: an endpoint whose ID is not a node of the
// tree, or a config that does not validate, fails before any message moves;
// the refusal names the ID and the tree.
func TestNodeEntryPointValidation(t *testing.T) {
	cfg := buildConfig(t, 109, 0)
	net := transport.NewMemoryNetwork()
	defer net.Close()
	endpoint := func(id string) transport.Endpoint {
		ep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	tree, err := cfg.Tree(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"x", "edge-9", "worker-2-0", "cloud-0"} {
		_, err := RunNode(cfg, endpoint(id), Options{})
		if err == nil || !strings.Contains(err.Error(), `"`+id+`"`) || !strings.Contains(err.Error(), tree.String()) {
			t.Errorf("node %q outside the tree: err = %v, want a refusal naming it and the tree", id, err)
		}
	}
	bad := *cfg
	bad.T = 7
	for _, id := range []string{WorkerID(0, 0), CloudID} {
		if _, err := RunNode(&bad, endpoint(id), Options{}); err == nil {
			t.Errorf("invalid config accepted by %s", id)
		}
	}
}

func TestListenStaticErrors(t *testing.T) {
	if _, err := transport.ListenStatic("ghost", map[string]string{"a": "127.0.0.1:0"}); err == nil {
		t.Error("missing own registry entry accepted")
	}
	if _, err := transport.ListenStatic("a", map[string]string{"a": "999.999.999.999:1"}); err == nil {
		t.Error("unbindable address accepted")
	}
}

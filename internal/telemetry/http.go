package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry at /metrics (Prometheus text format) and
// the standard pprof endpoints under /debug/pprof/. It is what flcluster
// mounts behind -metrics-addr, in either mode.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			_ = reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts an HTTP server for Handler(reg) on addr (e.g.
// "localhost:9090", or "localhost:0" to pick a free port). It returns
// the bound address and a shutdown func. The server goroutine exits when
// the shutdown func runs or the listener fails.
func Serve(addr string, reg *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg)}
	go func() { _ = srv.Serve(ln) }() //flvet:allow goexec -- HTTP serve loop lives until shutdown; not a bounded fan-out
	return ln.Addr().String(), srv.Close, nil
}

package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hieradmo/internal/cluster"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/transport"
)

func buildMetricsConfig(t *testing.T, seed uint64) *fl.Config {
	t.Helper()
	genCfg := dataset.GenConfig{
		Name:          "toy",
		Shape:         dataset.Shape{C: 1, H: 5, W: 5},
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.6,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(genCfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.TrainTest(320, 80, seed+1)
	shards, err := dataset.PartitionIID(train, 8, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(genCfg.Shape, genCfg.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	return &fl.Config{
		Model: m, Edges: hier, Test: test,
		Eta: 0.05, Gamma: 0.5, GammaEdge: 0.5,
		Tau: 2, Pi: 2, T: 24, BatchSize: 8, Seed: seed,
	}
}

// scrapeMetric extracts the value of one un-labelled metric sample from a
// Prometheus text exposition.
func scrapeMetric(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: bad sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in scrape:\n%s", name, body)
	return 0
}

// TestMetricsScrapeMatchesFaultReport runs a degraded cluster with a live
// /metrics endpoint, scrapes it over HTTP while training is in flight, and
// asserts afterwards that every fault-class counter the exporter serves
// equals the corresponding fl.Result.FaultReport total. The counters are
// incremented live by the transport and the run's ledger; the report is
// assembled at the end of the run from the transport's totals and the
// ledger's tally — agreement means neither path double-counts.
func TestMetricsScrapeMatchesFaultReport(t *testing.T) {
	cfg := buildMetricsConfig(t, 73)
	reg := telemetry.NewRegistry()
	sink := telemetry.New(reg, nil)
	cfg.Telemetry = sink

	srv := httptest.NewServer(telemetry.Handler(reg))
	defer srv.Close()

	// Scrape concurrently with the run: the exporter must serve consistent
	// output while every tier is hammering the counters.
	done := make(chan struct{})
	midScrapes := make(chan int, 1)
	go func() {
		defer close(midScrapes)
		n := 0
		for {
			select {
			case <-done:
				midScrapes <- n
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/metrics")
			if err == nil {
				if resp.StatusCode == http.StatusOK {
					n++
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:     9,
		DropRate: 0.05,
	})
	res, err := cluster.Run(cfg, net, cluster.Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: 100 * time.Millisecond,
		RecvTimeout:       5 * time.Second,
	})
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-midScrapes; n == 0 {
		t.Error("no successful /metrics scrape completed while the run was in flight")
	}

	rep := res.FaultReport
	if !rep.Any() {
		t.Fatal("fault injection produced a clean run; the comparison below would be vacuous")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, cmp := range []struct {
		metric string
		want   int
	}{
		{"fl_quorum_missing_workers_total", rep.TotalMissingWorkers()},
		{"fl_quorum_missing_edges_total", rep.TotalMissingEdges()},
		{"fl_stale_messages_total", rep.StaleMessages},
		{"fl_duplicate_reports_total", rep.DuplicateReports},
		{"fl_timeouts_total", rep.Timeouts},
		{"fl_dropped_messages_total", rep.Dropped},
		{"fl_send_retries_total", rep.Retries},
	} {
		if got := scrapeMetric(t, body, cmp.metric); got != float64(cmp.want) {
			t.Errorf("%s = %v, FaultReport says %d", cmp.metric, got, cmp.want)
		}
	}
	if got := scrapeMetric(t, body, "fl_dropped_messages_total"); got == 0 {
		t.Error("drop injection left fl_dropped_messages_total at 0")
	}
	// Protocol-progress counters must also reflect a completed run.
	if got := scrapeMetric(t, body, "fl_cloud_syncs_total"); got != float64(cfg.T/(cfg.Tau*cfg.Pi)) {
		t.Errorf("fl_cloud_syncs_total = %v, want %d", got, cfg.T/(cfg.Tau*cfg.Pi))
	}
	if got := scrapeMetric(t, body, "fl_round"); got != float64(cfg.T) {
		t.Errorf("fl_round = %v, want %d", got, cfg.T)
	}
}

// TestRunServesMetricsEndToEnd drives the actual CLI flags: -metrics-addr
// must bind, announce the address on stdout, and serve until the run exits.
func TestRunServesMetricsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-transport", "memory",
		"-model", "logistic",
		"-trace-out", dir + "/run.trace",
		"-metrics-addr", "127.0.0.1:0",
	}, nil)
	if err != nil {
		t.Fatalf("run with telemetry flags: %v", err)
	}
	events, err := telemetry.ReadTraceFile(dir + "/run.trace")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("-trace-out produced an empty trace")
	}
	if err := telemetry.CheckTrace(events); err != nil {
		t.Errorf("cluster trace sequence: %v", err)
	}
}

package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
)

// TestClampGammaTable pins eq. (7) at its boundaries: the obtuse-angle rule
// zeroes γℓ on any non-positive cosine (including exactly 0, where momentum
// carries no usable information), and agreement saturates at the ceiling.
func TestClampGammaTable(t *testing.T) {
	cases := []struct {
		name         string
		cos, ceiling float64
		want         float64
	}{
		{"anti-parallel", -1, DefaultClampCeiling, 0},
		{"obtuse", -0.5, DefaultClampCeiling, 0},
		{"exact orthogonal", 0, DefaultClampCeiling, 0},
		{"negative zero", math.Copysign(0, -1), DefaultClampCeiling, 0},
		{"barely acute", 1e-12, DefaultClampCeiling, 1e-12},
		{"interior", 0.5, DefaultClampCeiling, 0.5},
		{"at ceiling", 0.99, DefaultClampCeiling, 0.99},
		{"parallel clamps", 1, DefaultClampCeiling, 0.99},
		{"custom ceiling", 0.8, 0.6, 0.6},
		{"ceiling zero kills momentum", 0.7, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ClampGamma(tc.cos, tc.ceiling); got != tc.want {
				t.Errorf("ClampGamma(%v, %v) = %v, want %v", tc.cos, tc.ceiling, got, tc.want)
			}
		})
	}
}

func TestEdgeCosineRejectsLengthMismatch(t *testing.T) {
	_, err := EdgeCosine([]float64{1}, []tensor.Vector{{1}, {2}}, []tensor.Vector{{1}})
	if !errors.Is(err, tensor.ErrDimMismatch) {
		t.Fatalf("err = %v, want wrapped tensor.ErrDimMismatch", err)
	}
	_, err = EdgeCosine([]float64{1}, []tensor.Vector{{1, 2}}, []tensor.Vector{{1}})
	if !errors.Is(err, tensor.ErrDimMismatch) {
		t.Fatalf("mismatched vector dims err = %v, want wrapped tensor.ErrDimMismatch", err)
	}
}

// TestObservedGammasObeyClampRule runs the full algorithm — including a
// single-worker edge, where eq. (6) reduces to one unweighted cosine — and
// cross-checks every γℓ the observer reports against the clamp of the cosine
// the trace recorded for the same aggregation. This ties the table tests
// above to the production code path.
func TestObservedGammasObeyClampRule(t *testing.T) {
	cfg := buildConfig(t, []int{3, 1}, 0, 17) // edge 1 has a single worker
	cfg.EvalEvery = 8
	const ceiling = 0.5

	var buf bytes.Buffer
	cfg.Telemetry = telemetry.New(nil, telemetry.NewTracer(&buf))
	type obs struct {
		edge  int
		gamma float64
	}
	var seen []obs
	res, err := New(
		WithClampCeiling(ceiling),
		WithGammaObserver(func(edge int, gamma float64) { seen = append(seen, obs{edge, gamma}) }),
	).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	if err := cfg.Telemetry.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	if want := (cfg.T / cfg.Tau) * cfg.NumEdges(); len(seen) != want {
		t.Fatalf("observer saw %d gammas, want %d", len(seen), want)
	}

	events, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, e := range events {
		if e.Ev != "edge_aggregate" {
			continue
		}
		if i >= len(seen) {
			t.Fatal("more edge_aggregate events than observed gammas")
		}
		gamma, cos := e.Fields["gamma"].(float64), e.Fields["cos"].(float64)
		if gamma != seen[i].gamma {
			t.Errorf("event %d: traced gamma %v != observed %v", i, gamma, seen[i].gamma)
		}
		if want := ClampGamma(cos, ceiling); gamma != want {
			t.Errorf("event %d: gamma %v != ClampGamma(%v, %v) = %v", i, gamma, cos, ceiling, want)
		}
		if cos <= 0 && gamma != 0 {
			t.Errorf("event %d: obtuse cosine %v kept momentum %v", i, cos, gamma)
		}
		i++
	}
	if i == 0 {
		t.Fatal("trace contained no edge_aggregate events")
	}
}

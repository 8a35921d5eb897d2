package nn

import "testing"

func TestGradGlobalAvgPool(t *testing.T) {
	in := Shape3{C: 1, H: 6, W: 6}
	conv := NewConv2D(in, 4, 3, 1)
	gap := NewGlobalAvgPool(conv.OutShape())
	net, err := Sequential(SoftmaxCrossEntropy{},
		conv, gap, NewDense(4, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	checkGradients(t, net, 24, 1e-4)
}

func TestGlobalAvgPoolValues(t *testing.T) {
	p := NewGlobalAvgPool(Shape3{C: 2, H: 1, W: 2})
	out := make([]float64, 2)
	p.Forward(nil, []float64{1, 3, 10, 20}, out, nil)
	if out[0] != 2 || out[1] != 15 {
		t.Errorf("gap = %v, want [2 15]", out)
	}
}

func TestExtraLayerMetadata(t *testing.T) {
	in := Shape3{C: 2, H: 4, W: 4}
	tests := []struct {
		layer    Layer
		wantName string
		wantOut  int
	}{
		{layer: NewGlobalAvgPool(in), wantName: "globalavgpool", wantOut: 2},
	}
	for _, tt := range tests {
		t.Run(tt.wantName, func(t *testing.T) {
			if got := tt.layer.Name(); got != tt.wantName {
				t.Errorf("Name = %q", got)
			}
			if got := tt.layer.OutShape().Size(); got != tt.wantOut {
				t.Errorf("out size = %d, want %d", got, tt.wantOut)
			}
			if tt.layer.ParamCount() != 0 {
				t.Errorf("ParamCount = %d, want 0", tt.layer.ParamCount())
			}
		})
	}
}

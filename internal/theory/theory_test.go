package theory

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
	"hieradmo/internal/topology"
)

func validParams() Params {
	return Params{Eta: 0.01, Gamma: 0.5, GammaEdge: 0.5, Beta: 10, Rho: 5}
}

func TestParamsValidate(t *testing.T) {
	if err := validParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Params)
	}{
		{name: "zero eta", mut: func(p *Params) { p.Eta = 0 }},
		{name: "gamma 1", mut: func(p *Params) { p.Gamma = 1 }},
		{name: "gamma 0", mut: func(p *Params) { p.Gamma = 0 }},
		{name: "gammaEdge 1", mut: func(p *Params) { p.GammaEdge = 1 }},
		{name: "negative beta", mut: func(p *Params) { p.Beta = -1 }},
		{name: "zero rho", mut: func(p *Params) { p.Rho = 0 }},
		{name: "condition 1", mut: func(p *Params) { p.Beta = 1000 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := validParams()
			tt.mut(&p)
			if err := p.Validate(); !errors.Is(err, ErrParams) {
				t.Errorf("err = %v, want ErrParams", err)
			}
		})
	}
}

func TestDeriveRootsSatisfyCharacteristicEquation(t *testing.T) {
	// A and B are the roots of γz² − (1+ηβ)(1+γ)z + (1+ηβ) = 0.
	p := validParams()
	c, err := Derive(p)
	if err != nil {
		t.Fatal(err)
	}
	ob := 1 + p.Eta*p.Beta
	for _, z := range []float64{c.A, c.B} {
		res := p.Gamma*z*z - ob*(1+p.Gamma)*z + ob
		if math.Abs(res) > 1e-9 {
			t.Errorf("root %v residual %v", z, res)
		}
	}
	if c.A <= c.B {
		t.Errorf("A %v should exceed B %v", c.A, c.B)
	}
	// U + V = 1 by construction.
	if math.Abs(c.U+c.V-1) > 1e-12 {
		t.Errorf("U+V = %v, want 1", c.U+c.V)
	}
}

func TestHZeroAtOrigin(t *testing.T) {
	p := validParams()
	c, err := Derive(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := H(p, c, 0, 1.0); got != 0 {
		t.Errorf("h(0) = %v, want 0", got)
	}
	if got := H(p, c, 5, 0); got != 0 {
		t.Errorf("h(5, δ=0) = %v, want 0", got)
	}
}

func TestHNonNegativeAndIncreasing(t *testing.T) {
	// Paper eq. (39): h(x) ≥ 0 and increases with x.
	p := validParams()
	c, err := Derive(p)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for x := 1; x <= 64; x *= 2 {
		h := H(p, c, x, 0.5)
		if h < prev {
			t.Errorf("h(%d) = %v < h(prev) = %v (not increasing)", x, h, prev)
		}
		if h < 0 {
			t.Errorf("h(%d) = %v < 0", x, h)
		}
		prev = h
	}
}

func TestHIncreasesWithDelta(t *testing.T) {
	p := validParams()
	c, err := Derive(p)
	if err != nil {
		t.Fatal(err)
	}
	if H(p, c, 10, 1.0) <= H(p, c, 10, 0.5) {
		t.Error("h should increase with δ")
	}
}

func TestSIncreasesWithTau(t *testing.T) {
	// Paper: s(τ) increases with τ; and s scales with γℓ (Theorem 5 uses
	// smaller E(γℓ) ⇒ smaller s ⇒ tighter bound).
	p := validParams()
	if S(p, 20, 1) <= S(p, 10, 1) {
		t.Error("s should increase with tau")
	}
	small, big := p, p
	small.GammaEdge = 0.25
	big.GammaEdge = 0.5
	if S(small, 10, 1) >= S(big, 10, 1) {
		t.Error("s should increase with gammaEdge")
	}
}

func TestJ4IncreasesWithTauAndPi(t *testing.T) {
	// Paper: j(τ, π) increases with τ and with π (drives Fig. 2(a)/(b)).
	p := validParams()
	c, err := Derive(p)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.5, 0.5}
	d := []float64{0.4, 0.6}
	j1, err := J4(p, c, 5, 2, w, d, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := J4(p, c, 10, 2, w, d, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := J4(p, c, 5, 4, w, d, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if j2 <= j1 {
		t.Errorf("j(10,2)=%v should exceed j(5,2)=%v", j2, j1)
	}
	if j3 <= j1 {
		t.Errorf("j(5,4)=%v should exceed j(5,2)=%v", j3, j1)
	}
	if _, err := J4(p, c, 5, 2, w, d[:1], 0.5, 1); !errors.Is(err, ErrParams) {
		t.Errorf("mismatched weights err = %v", err)
	}
}

func TestAlphaPositiveInValidRegime(t *testing.T) {
	// Condition (2.1) needs α > 0; with small μ it must hold.
	p := validParams()
	if a := Alpha(p, 0.1); a <= 0 {
		t.Errorf("alpha = %v, want > 0", a)
	}
}

func TestBoundDecreasesWithT(t *testing.T) {
	// Theorem 4: the bound is ∝ 1/T.
	p := validParams()
	p.Rho = 1
	in := BoundInput{
		Tau: 5, Pi: 2, T: 100,
		EdgeWeights: []float64{0.5, 0.5},
		EdgeDeltas:  []float64{0.01, 0.01},
		Delta:       0.01,
		Mu:          0.1,
		Omega:       10, Sigma: 2, Epsilon: 1,
	}
	b1, err := Bound(p, in)
	if err != nil {
		t.Fatal(err)
	}
	in.T = 200
	b2, err := Bound(p, in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b1/b2-2) > 1e-9 {
		t.Errorf("bound ratio %v, want exactly 2 (O(1/T))", b1/b2)
	}
}

func TestBoundIncreasesWithTauPi(t *testing.T) {
	// Theorem 4 discussion: larger τ (and π) increase the bound.
	p := validParams()
	p.Rho = 1
	base := BoundInput{
		Tau: 5, Pi: 2, T: 400,
		EdgeWeights: []float64{0.5, 0.5},
		EdgeDeltas:  []float64{0.01, 0.01},
		Delta:       0.01,
		Mu:          0.1,
		Omega:       10, Sigma: 2, Epsilon: 1,
	}
	b1, err := Bound(p, base)
	if err != nil {
		t.Fatal(err)
	}
	bigger := base
	bigger.Tau = 10
	b2, err := Bound(p, bigger)
	if err != nil {
		t.Fatal(err)
	}
	if b2 <= b1 {
		t.Errorf("bound(tau=10)=%v should exceed bound(tau=5)=%v", b2, b1)
	}
}

func TestBoundTighterWithSmallerGammaEdge(t *testing.T) {
	// Theorem 5's mechanism: smaller expected γℓ ⇒ smaller s(τ) ⇒ smaller j
	// ⇒ tighter bound. Adaptive E(γℓ)=1/4 < fixed E(γ̃ℓ)=1/2.
	adaptive, fixed := validParams(), validParams()
	adaptive.Rho, fixed.Rho = 1, 1
	adaptive.GammaEdge = ExpectedGammaAdaptive()
	fixed.GammaEdge = ExpectedGammaFixed()
	in := BoundInput{
		Tau: 5, Pi: 2, T: 400,
		EdgeWeights: []float64{0.5, 0.5},
		EdgeDeltas:  []float64{0.01, 0.01},
		Delta:       0.01,
		Mu:          0.1,
		Omega:       10, Sigma: 2, Epsilon: 1,
	}
	ba, err := Bound(adaptive, in)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := Bound(fixed, in)
	if err != nil {
		t.Fatal(err)
	}
	if ba >= bf {
		t.Errorf("adaptive bound %v should be tighter than fixed %v (Theorem 5)", ba, bf)
	}
}

func TestBoundConditionViolation(t *testing.T) {
	// Gigantic τ must trip condition (2.1) rather than return a vacuous
	// number — the regime the paper warns about.
	p := validParams()
	in := BoundInput{
		Tau: 5000, Pi: 2, T: 10000,
		EdgeWeights: []float64{1},
		EdgeDeltas:  []float64{1},
		Delta:       1,
		Mu:          0.1,
		Omega:       1, Sigma: 1, Epsilon: 0.1,
	}
	if _, err := Bound(p, in); !errors.Is(err, ErrParams) {
		t.Errorf("err = %v, want ErrParams for condition (2.1)", err)
	}
}

func TestBoundInputValidation(t *testing.T) {
	p := validParams()
	in := BoundInput{
		Tau: 5, Pi: 2, T: 99, // not a multiple
		EdgeWeights: []float64{1}, EdgeDeltas: []float64{0.1},
		Delta: 0.1, Mu: 0.1, Omega: 1, Sigma: 1, Epsilon: 1,
	}
	if _, err := Bound(p, in); !errors.Is(err, ErrParams) {
		t.Errorf("non-multiple T err = %v", err)
	}
	in.T = 100
	in.Epsilon = 0
	if _, err := Bound(p, in); !errors.Is(err, ErrParams) {
		t.Errorf("zero epsilon err = %v", err)
	}
}

func TestTheorem5Moments(t *testing.T) {
	// Verify the closed forms against Monte-Carlo under the Theorem 5 model.
	r := rng.New(99)
	const n = 400000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		cos := 2*r.Float64() - 1 // U(-1,1)
		g := cos
		if g < 0 {
			g = 0
		} else if g > 0.99 {
			g = 0.99
		}
		sum += g
		sumSq += g * g
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-ExpectedGammaAdaptive()) > 0.01 {
		t.Errorf("MC mean %v vs closed form %v", mean, ExpectedGammaAdaptive())
	}
	if math.Abs(variance-VarGammaAdaptive()) > 0.01 {
		t.Errorf("MC variance %v vs closed form %v", variance, VarGammaAdaptive())
	}
	if ExpectedGammaAdaptive() >= ExpectedGammaFixed() {
		t.Error("Theorem 5 expectation ordering violated")
	}
	if VarGammaFixed() != 1.0/12.0 {
		t.Error("fixed-γℓ variance wrong")
	}
}

// divergenceConfig partitions one toy dataset over edges (workers per
// edge), IID when classesPerWorker is 0, and returns the config with the
// shared initialization the estimates are taken at.
func divergenceConfig(t *testing.T, classesPerWorker int, edges []int) (*fl.Config, tensor.Vector) {
	t.Helper()
	genCfg := dataset.GenConfig{
		Name:          "toy",
		Shape:         dataset.Shape{C: 1, H: 5, W: 5},
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.5,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(genCfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.TrainTest(400, 80, 5)
	m, err := model.NewLogisticRegression(genCfg.Shape, genCfg.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	workers := 0
	for _, n := range edges {
		workers += n
	}
	var shards []*dataset.Dataset
	if classesPerWorker > 0 {
		shards, err = dataset.PartitionClasses(train, workers, classesPerWorker, 7)
	} else {
		shards, err = dataset.PartitionIID(train, workers, 7)
	}
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, edges)
	if err != nil {
		t.Fatal(err)
	}
	return &fl.Config{
		Model: m, Edges: hier, Test: test,
		Eta: 0.05, Gamma: 0.5, GammaEdge: 0.5,
		Tau: 2, Pi: 2, T: 8, BatchSize: 8, Seed: 5,
	}, m.Init(rng.New(1))
}

func TestEstimateDivergence(t *testing.T) {
	// Non-IID partitioning must produce strictly larger measured divergence
	// than IID partitioning of the same data — Assumption 3 made tangible.
	iidCfg, params := divergenceConfig(t, 0, []int{2, 2})
	iid, err := EstimateDivergence(iidCfg, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	nonIIDCfg, _ := divergenceConfig(t, 1, []int{2, 2})
	nonIID, err := EstimateDivergence(nonIIDCfg, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	if nonIID.Global <= iid.Global {
		t.Errorf("non-IID δ = %v should exceed IID δ = %v", nonIID.Global, iid.Global)
	}
	if len(iid.PerEdge) != 2 || len(iid.PerWorker[0]) != 2 {
		t.Error("divergence shape wrong")
	}
	for l := range iid.PerWorker {
		for i, d := range iid.PerWorker[l] {
			if d < 0 {
				t.Errorf("negative divergence at {%d,%d}", i, l)
			}
		}
	}
}

// TestEstimateDivergenceThreeLevelPinned holds the estimate on the config's
// own cloud / edge / worker tree to the values the edge-grouped estimate it
// replaced gave on the same non-IID config, bit for bit.
func TestEstimateDivergenceThreeLevelPinned(t *testing.T) {
	cfg, params := divergenceConfig(t, 1, []int{2, 2})
	div, err := EstimateDivergence(cfg, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	want := Divergence{
		PerWorker: [][]float64{{1.4562609683678427, 1.4848151050025062}, {1.2685392410177718, 1.1924268865567056}},
		PerEdge:   []float64{1.470399424371414, 1.2293060686151602},
		Weights:   []float64{0.515, 0.485},
		Global:    1.353469146829631,
	}
	if !reflect.DeepEqual(*div, want) {
		t.Errorf("three-level estimate %+v, pinned %+v", *div, want)
	}
}

// TestDivergenceWeights: the leaf parents' weights Dℓ/D are the root's
// weights on the config's own tree and sum to 1.
func TestDivergenceWeights(t *testing.T) {
	cfg, params := divergenceConfig(t, 1, []int{3, 1})
	div, err := EstimateDivergence(cfg, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cfg.Tree(nil)
	if err != nil {
		t.Fatal(err)
	}
	w := div.Weights
	if !reflect.DeepEqual(w, tree.Weights[0][0]) || math.Abs(w[0]+w[1]-1) > 1e-12 {
		t.Errorf("edge weights %v, the root's %v", w, tree.Weights[0][0])
	}
	if len(div.PerWorker[0]) != 3 || len(div.PerWorker[1]) != 1 {
		t.Errorf("per-worker shape %d/%d, want the cohorts 3/1", len(div.PerWorker[0]), len(div.PerWorker[1]))
	}
}

// TestEstimateDivergenceSpecTree scores a four-level spec tree over the same
// shards: the leaf parents are its four edges of two workers, their weights
// are their subtrees' shares of the data (the path products of the tree's
// weights) and sum to 1, and δ is Σℓ Wℓ·δℓ summed in leaf-parent order.
func TestEstimateDivergenceSpecTree(t *testing.T) {
	cfg, params := divergenceConfig(t, 1, []int{4, 4})
	topo, err := topology.Parse("cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cfg.Tree(topo)
	if err != nil {
		t.Fatal(err)
	}
	div, err := EstimateDivergence(cfg, tree, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(div.PerEdge) != 4 || len(div.Weights) != 4 {
		t.Fatalf("%d cohorts, %d weights; want the spec's four edges", len(div.PerEdge), len(div.Weights))
	}
	var sum, global float64
	for l, w := range div.Weights {
		if len(div.PerWorker[l]) != 2 {
			t.Errorf("edge %d scores %d workers, want 2", l, len(div.PerWorker[l]))
		}
		if path := tree.Weights[0][0][l/2] * tree.Weights[1][l/2][l%2]; math.Abs(w-path) > 1e-15 {
			t.Errorf("edge %d weighs %v, its path %v", l, w, path)
		}
		sum += w
		global += w * div.PerEdge[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("leaf-parent weights sum to %v", sum)
	}
	if global != div.Global {
		t.Errorf("Global = %v, Σ Wℓ·δℓ = %v", div.Global, global)
	}
	// A tree resolved for another config is refused, as both engines refuse it.
	other, _ := divergenceConfig(t, 1, []int{2, 2})
	if _, err := EstimateDivergence(other, tree, params); !errors.Is(err, fl.ErrConfig) {
		t.Errorf("a tree of eight leaves over four shards: %v, want fl.ErrConfig", err)
	}
}

func TestDerivePropertyValidInputs(t *testing.T) {
	// For any valid (η, γ, β) the discriminant is non-negative:
	// (1+ηβ)²(1+γ)² − 4γ(1+ηβ) = (1+ηβ)[(1+ηβ)(1+γ)² − 4γ] and
	// (1+γ)² ≥ 4γ always. Derive must therefore succeed on all valid params.
	f := func(etaRaw, gammaRaw, betaRaw uint16) bool {
		p := Params{
			Eta:   0.0001 + float64(etaRaw%1000)/100000.0,
			Gamma: 0.01 + 0.98*float64(gammaRaw%100)/100.0,
			Beta:  0.1 + float64(betaRaw%100)/10.0,
			Rho:   1, GammaEdge: 0.5,
		}
		if p.Validate() != nil {
			return true // out of the theorem's regime; nothing to check
		}
		_, err := Derive(p)
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

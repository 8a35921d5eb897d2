package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/tensor"
	"hieradmo/internal/topology"
)

// tree4 is the four-level tree of the tree tests: eight leaves under four
// edges under two regions under the cloud.
const tree4 = "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2"

// specTree resolves a topology spec over cfg's workers.
func specTree(t *testing.T, cfg *fl.Config, spec string) *topology.Tree {
	t.Helper()
	topo, err := topology.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := cfg.Tree(topo)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// countingModel counts gradient evaluations and, when crashAt is set, fails
// the crashAt-th one: a crash in the middle of the iteration it lands in,
// after the snapshots of every iteration before it.
type countingModel struct {
	model.Model
	calls   atomic.Int64
	crashAt int64
}

var errCrash = errors.New("injected crash")

func (m *countingModel) LossGrad(params tensor.Vector, batch []dataset.Sample, grad tensor.Vector) (float64, error) {
	if n := m.calls.Add(1); n == m.crashAt {
		return 0, errCrash
	}
	return m.Model.LossGrad(params, batch, grad)
}

// TestTreeResumeAtEveryRootBoundary: a four-level simulation crashed right
// after any root boundary resumes from that boundary's snapshot and lands on
// the uninterrupted run bit for bit; the snapshot names the middle tier's
// state tier/<k>/<n>/… beside the edges' and the cloud's.
func TestTreeResumeAtEveryRootBoundary(t *testing.T) {
	build := func(dir string) (*fl.Config, *countingModel) {
		cfg := buildConfig(t, []int{4, 4}, 0, 7)
		cfg.EvalEvery = 4
		cfg.Workers = 1
		cfg.CheckpointDir = dir
		if dir != "" {
			cfg.CheckpointEvery = 8
		}
		counter := &countingModel{Model: cfg.Model}
		cfg.Model = counter
		return cfg, counter
	}
	cfg, _ := build("")
	ref, err := New().RunTree(cfg, specTree(t, cfg, tree4))
	if err != nil {
		t.Fatal(err)
	}
	leaves := int64(cfg.NumWorkers())
	for b := 8; b < cfg.T; b += 8 {
		t.Run(fmt.Sprintf("t=%d", b), func(t *testing.T) {
			dir := t.TempDir()
			crashed, counter := build(dir)
			counter.crashAt = int64(b)*leaves + 1
			if _, err := New().RunTree(crashed, specTree(t, crashed, tree4)); !errors.Is(err, errCrash) {
				t.Fatalf("crashed run = %v, want the injected crash", err)
			}
			resumed, counter := build(dir)
			res, err := New().RunTree(resumed, specTree(t, resumed, tree4))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := counter.calls.Load(), int64(cfg.T-b)*leaves; got != want {
				t.Fatalf("resumed run took %d gradient steps, want %d (resume from t=%d)", got, want, b)
			}
			assertSameResult(t, ref, res)
			if b == 8 {
				checkTreeEntryNames(t, dir)
			}
		})
	}
}

// checkTreeEntryNames reads the snapshot in dir and checks the tier state
// entries of tree4: four edges, two middle tiers at stack level 1, the cloud.
func checkTreeEntryNames(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshot in %s (%v)", dir, err)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := checkpoint.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	var tiers []string
	for name := range st.Vectors {
		if !strings.HasPrefix(name, "worker/") && !strings.HasPrefix(name, "harness/") && !strings.HasPrefix(name, "dyn/") {
			tiers = append(tiers, name)
		}
	}
	sort.Strings(tiers)
	var want []string
	for _, at := range []string{"edge/0/", "edge/1/", "edge/2/", "edge/3/", "tier/1/0/", "tier/1/1/"} {
		want = append(want, at+"xPlus", at+"yMinus", at+"yPlus")
	}
	want = append(want, "cloud/x", "cloud/y")
	sort.Strings(want)
	if fmt.Sprint(tiers) != fmt.Sprint(want) {
		t.Errorf("tier entries %v, want %v", tiers, want)
	}
}

// TestTreeSnapshotRefusedUnderOtherTree: the spec's shape is part of the
// fingerprint, so a four-level snapshot seeds neither another spec over the
// same leaves nor the configuration's own tree.
func TestTreeSnapshotRefusedUnderOtherTree(t *testing.T) {
	dir := t.TempDir()
	cfg := buildConfig(t, []int{4, 4}, 0, 7)
	cfg.CheckpointDir = dir
	if _, err := New().RunTree(cfg, specTree(t, cfg, tree4)); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"cloud:tau=8/region*2:tau=4/edge*4:tau=2/worker", ""} {
		var tree *topology.Tree
		if spec != "" {
			tree = specTree(t, cfg, spec)
		} else {
			var err error
			if tree, err = cfg.Tree(nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := New().RunTree(cfg, tree); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Errorf("resuming the %s snapshot under %s = %v, want ErrMismatch", tree4, tree, err)
		}
	}
}

// TestSpecTreeOfTheDerivedShapeRunsTheDerivedRun: a spec spelling out the
// configuration's own cloud / edge / worker shape is the same tree, so every
// view of it — HierAdMo's and the flat one — lands where Run does.
func TestSpecTreeOfTheDerivedShapeRunsTheDerivedRun(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 2, 11)
	cfg.EvalEvery = 4
	for _, rule := range []*Rule{New().Row(), NewReduced().Row(), {Algorithm: "flat", Flat: true, Nesterov: true}} {
		want, err := rule.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rule.RunTree(cfg, specTree(t, cfg, "cloud:tau=4/edge*2:tau=2/worker*2"))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, got)
	}
}

// TestTreeRefusesWhatItCannotRun: on a spec's tree the simulation refuses,
// with ErrTree naming the combination, a hooked row, a robust agg=, and γ /
// adapt attributes the rule has no momentum level for; the configuration's
// own tree runs the hooked row.
func TestTreeRefusesWhatItCannotRun(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 0, 13)
	hooked := &Rule{Algorithm: "hooked", Hooks: func(*Binding) Hooks { return Hooks{} }}
	plain := &Rule{Algorithm: "plain"}
	flat := &Rule{Algorithm: "flat", Flat: true}
	for _, tc := range []struct {
		rule *Rule
		spec string
		want string
	}{
		{hooked, "cloud:tau=4/edge*2:tau=2/worker*2", "hooked"},
		{New().Row(), "cloud:tau=4,agg=median/edge*2:tau=2/worker*2", "agg=median"},
		{New().Row(), "cloud:tau=4/edge*2:tau=2,agg=trimmed(0.2)/worker*2", "agg=trimmed"},
		{plain, "cloud:tau=4/edge*2:tau=2,gamma=0.5/worker*2", `"edge"`},
		{flat, "cloud:tau=4,gamma=0.5/edge*2:tau=2/worker*2", `"cloud"`},
	} {
		_, err := tc.rule.RunTree(cfg, specTree(t, cfg, tc.spec))
		if !errors.Is(err, ErrTree) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s on %s = %v, want ErrTree naming %s", tc.rule.Algorithm, tc.spec, err, tc.want)
		}
	}
	if _, err := hooked.Run(cfg); err != nil {
		t.Errorf("hooked row on the configuration's own tree: %v", err)
	}
}

package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// corpusPolicy enables the named checkers on every package, with the
// corpus's own instrument type names for nilsink.
func corpusPolicy(checkers ...string) Policy {
	rules := make(map[string]func(string) bool, len(checkers))
	for _, name := range checkers {
		rules[name] = func(string) bool { return true }
	}
	return Policy{
		Rules:         rules,
		NilGuardTypes: []string{"Counter", "Sink", "Tracer"},
	}
}

// want is one expectation: a diagnostic on a line whose message matches rx.
type want struct {
	line    int
	rx      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var wantStrRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants scans a corpus file for // want "rx" expectations. Several
// quoted patterns after one marker expect several diagnostics on the line.
func collectWants(t *testing.T, path string) []*want {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range wantStrRE.FindAllString(m[1], -1) {
			pat := q[1 : len(q)-1]
			pat = strings.ReplaceAll(pat, `\"`, `"`)
			rx, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
			}
			wants = append(wants, &want{line: i + 1, rx: rx})
		}
	}
	return wants
}

// runCorpus loads one corpus package, runs the suite under pol, and
// compares the diagnostics against the corpus's want expectations.
func runCorpus(t *testing.T, name string, pol Policy) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(dir, "flvet/corpus/"+name)
	if err != nil {
		t.Fatalf("load corpus %s: %v", name, err)
	}
	diags := Run([]*Package{pkg}, Checkers(), pol)

	var wants []*want
	byFile := map[string][]*want{}
	names, err := goFileNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fname := range names {
		path := filepath.Join(dir, fname)
		ws := collectWants(t, path)
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		byFile[abs] = ws
		wants = append(wants, ws...)
	}
	if len(wants) == 0 {
		t.Fatalf("corpus %s has no want expectations", name)
	}

	for _, d := range diags {
		abs, err := filepath.Abs(d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		if !claim(byFile[abs], d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("line %d: expected diagnostic matching %q, got none", w.line, w.rx)
		}
	}
}

// claim marks the first unmatched expectation that covers d.
func claim(wants []*want, d Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func TestDetwallCorpus(t *testing.T)  { runCorpus(t, "detwall", corpusPolicy("detwall")) }
func TestMaporderCorpus(t *testing.T) { runCorpus(t, "maporder", corpusPolicy("maporder")) }
func TestGoexecCorpus(t *testing.T)   { runCorpus(t, "goexec", corpusPolicy("goexec")) }
func TestWireallocCorpus(t *testing.T) {
	runCorpus(t, "wirealloc", corpusPolicy("wirealloc"))
}
func TestNilsinkCorpus(t *testing.T) { runCorpus(t, "nilsink", corpusPolicy("nilsink")) }

// TestFporderCorpus covers the reduction-order shapes beyond maporder:
// plain map-range accumulation, channel receives, goroutine fan-in.
func TestFporderCorpus(t *testing.T) { runCorpus(t, "fporder", corpusPolicy("fporder")) }

// TestCkptstateCorpus pins the corpus's own Registry type so coverage,
// forwarders, constructor exclusion, and directives all exercise the
// same machinery the real checkpoint registry goes through.
func TestCkptstateCorpus(t *testing.T) {
	pol := corpusPolicy("ckptstate")
	pol.CkptRegistries = []string{"flvet/corpus/ckptstate.Registry"}
	runCorpus(t, "ckptstate", pol)
}

// TestAllocfreeCorpus pins corpus roots by concrete name and through an
// interface row, covering direct sites, transitive witnesses, tail
// calls, boxing, append growth (into a local versus into a lent buffer,
// the wire codec's idiom), and the cold-path exemptions.
func TestAllocfreeCorpus(t *testing.T) {
	pol := corpusPolicy("allocfree")
	pol.HotFuncs = []string{
		"flvet/corpus/allocfree.Step",
		"(*flvet/corpus/allocfree.Engine).Tick",
		"flvet/corpus/allocfree.Scale",
		"flvet/corpus/allocfree.Mix",
		"flvet/corpus/allocfree.Clone",
		"flvet/corpus/allocfree.Warm",
		"flvet/corpus/allocfree.Frame",
		"(*flvet/corpus/allocfree.snapshot).section",
		"(*flvet/corpus/allocfree.snapshot).copied",
	}
	pol.HotIfaces = []string{"flvet/corpus/allocfree.Agg.Combine"}
	runCorpus(t, "allocfree", pol)
}

// TestAllowCorpus exercises the directive machinery: suppression in both
// placements, mandatory reasons, unknown names, unused directives.
func TestAllowCorpus(t *testing.T) {
	runCorpus(t, "allow", corpusPolicy("detwall", "maporder"))
}

// TestCheckerDocs keeps every checker addressable by directives and the
// -list flag.
func TestCheckerDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checkers() {
		if c.Name == "" || c.Doc == "" || c.Run == nil {
			t.Errorf("checker %+v incomplete", c)
		}
		if seen[c.Name] {
			t.Errorf("duplicate checker name %q", c.Name)
		}
		seen[c.Name] = true
		if !checkerKnown(c.Name) {
			t.Errorf("checkerKnown(%q) = false", c.Name)
		}
	}
	for _, name := range []string{
		"detwall", "maporder", "fporder", "goexec",
		"wirealloc", "nilsink", "ckptstate", "allocfree",
	} {
		if !seen[name] {
			t.Errorf("suite is missing checker %q", name)
		}
	}
	if checkerKnown("notachecker") {
		t.Error(`checkerKnown("notachecker") = true`)
	}
}

// TestDefaultPolicyTable pins the package policy documented in DESIGN.md
// §11: which checkers run where, and where the sanctioned exemptions are.
func TestDefaultPolicyTable(t *testing.T) {
	pol := DefaultPolicy("hieradmo")
	cases := []struct {
		checker, pkg string
		want         bool
	}{
		{"detwall", "hieradmo/internal/core", true},
		{"detwall", "hieradmo/internal/telemetry", true},
		{"detwall", "hieradmo/internal/rng", true},
		{"detwall", "hieradmo/internal/cluster", false},
		{"detwall", "hieradmo/internal/transport", false},
		{"maporder", "hieradmo/internal/cluster", true},
		{"maporder", "hieradmo/cmd/tracecat", true},
		{"goexec", "hieradmo/internal/parallel", false},
		{"goexec", "hieradmo/internal/cluster", false},
		{"goexec", "hieradmo/internal/transport", true},
		{"goexec", "hieradmo/internal/core", true},
		// The GEMM/conv kernel packages carry no exemptions: the hot loops
		// must stay deterministic, map-order-free, and goroutine-free.
		{"detwall", "hieradmo/internal/tensor", true},
		{"detwall", "hieradmo/internal/nn", true},
		{"maporder", "hieradmo/internal/tensor", true},
		{"maporder", "hieradmo/internal/nn", true},
		{"goexec", "hieradmo/internal/tensor", true},
		{"goexec", "hieradmo/internal/nn", true},
		{"wirealloc", "hieradmo/internal/tensor", false},
		{"nilsink", "hieradmo/internal/tensor", false},
		{"nilsink", "hieradmo/internal/nn", false},
		// The robust-aggregation package is pure sequential math on the
		// aggregation hot path: the full determinism battery applies, and
		// neither exemption class (wire decoders, telemetry internals) does.
		{"detwall", "hieradmo/internal/robust", true},
		{"maporder", "hieradmo/internal/robust", true},
		{"goexec", "hieradmo/internal/robust", true},
		{"wirealloc", "hieradmo/internal/robust", false},
		{"nilsink", "hieradmo/internal/robust", false},
		// The topology package (tree-spec grammar + validation) is pure
		// sequential parsing feeding the N-tier runtime's shape: the full
		// determinism battery applies with no exemptions, and it decodes no
		// wire bytes and holds no telemetry internals.
		{"detwall", "hieradmo/internal/topology", true},
		{"maporder", "hieradmo/internal/topology", true},
		{"goexec", "hieradmo/internal/topology", true},
		{"wirealloc", "hieradmo/internal/topology", false},
		{"nilsink", "hieradmo/internal/topology", false},
		// Same for the netsim tree environment that times those topologies.
		{"detwall", "hieradmo/internal/netsim", true},
		{"goexec", "hieradmo/internal/netsim", true},
		{"wirealloc", "hieradmo/internal/checkpoint", true},
		{"wirealloc", "hieradmo/internal/persist", true},
		{"wirealloc", "hieradmo/internal/transport", true},
		{"wirealloc", "hieradmo/internal/core", false},
		{"nilsink", "hieradmo/internal/telemetry", true},
		{"nilsink", "hieradmo/internal/core", false},
		// fporder runs everywhere except internal/parallel, whose reducers
		// are the sanctioned fixed-order primitives.
		{"fporder", "hieradmo/internal/core", true},
		{"fporder", "hieradmo/internal/cluster", true},
		{"fporder", "hieradmo/internal/robust", true},
		{"fporder", "hieradmo/internal/tensor", true},
		{"fporder", "hieradmo/internal/parallel", false},
		// ckptstate and allocfree are whole-program dataflow checkers with
		// no package exemptions at all: registration completeness and the
		// pinned hot roots are enforced wherever they appear — including
		// the kernel, robust-aggregation, and core packages.
		{"ckptstate", "hieradmo/internal/core", true},
		{"ckptstate", "hieradmo/internal/cluster", true},
		{"ckptstate", "hieradmo/internal/checkpoint", true},
		{"ckptstate", "hieradmo/internal/parallel", true},
		{"allocfree", "hieradmo/internal/core", true},
		{"allocfree", "hieradmo/internal/tensor", true},
		{"allocfree", "hieradmo/internal/nn", true},
		{"allocfree", "hieradmo/internal/robust", true},
	}
	for _, c := range cases {
		if got := pol.Applies(c.checker, c.pkg); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.checker, c.pkg, got, c.want)
		}
	}
	want := []string{"Counter", "Gauge", "Histogram", "Sink", "Tracer"}
	if fmt.Sprint(pol.NilGuardTypes) != fmt.Sprint(want) {
		t.Errorf("NilGuardTypes = %v, want %v", pol.NilGuardTypes, want)
	}

	// The dataflow pin tables: the checkpoint registry type, the exact
	// hot roots, and the interface row that pins every robust aggregator.
	// Renaming any of these without updating the policy is itself a
	// finding (allocfree's missing-root rule), and this test keeps the
	// table from silently shrinking.
	if fmt.Sprint(pol.CkptRegistries) != fmt.Sprint([]string{"hieradmo/internal/checkpoint.Registry"}) {
		t.Errorf("CkptRegistries = %v", pol.CkptRegistries)
	}
	wantHot := []string{
		"(*hieradmo/internal/core.Leaf).Step",
		"(*hieradmo/internal/core.Tier).Update",
		"(*hieradmo/internal/fl.GradOracle).Grad",
		"hieradmo/internal/tensor.GEMMBias",
		"hieradmo/internal/tensor.GEMMAddTransB",
		"hieradmo/internal/tensor.GEMMAdd",
		"hieradmo/internal/tensor.gemmBias",
		"hieradmo/internal/tensor.gemmAddTransB",
		"hieradmo/internal/tensor.gemmAdd",
		"hieradmo/internal/tensor.gemmBiasGeneric",
		"hieradmo/internal/tensor.gemmAddTransBGeneric",
		"hieradmo/internal/tensor.gemmAddGeneric",
		"(*hieradmo/internal/nn.Network).LossGradBatch",
		"(*hieradmo/internal/nn.Dense).Forward",
		"(*hieradmo/internal/nn.Dense).Backward",
		"(*hieradmo/internal/nn.Dense).forwardBlock",
		"(*hieradmo/internal/nn.Dense).backwardBlock",
		"(*hieradmo/internal/nn.Conv2D).Forward",
		"(*hieradmo/internal/nn.Conv2D).Backward",
		"(*hieradmo/internal/nn.convReLU).Forward",
		"(*hieradmo/internal/nn.convReLU).Backward",
		"hieradmo/internal/transport.encodeFrame",
		"(*hieradmo/internal/transport.decoder).decode",
		"(*hieradmo/internal/checkpoint.Registry).encode",
	}
	if fmt.Sprint(pol.HotFuncs) != fmt.Sprint(wantHot) {
		t.Errorf("HotFuncs = %v, want %v", pol.HotFuncs, wantHot)
	}
	if fmt.Sprint(pol.HotIfaces) != fmt.Sprint([]string{"hieradmo/internal/robust.Aggregator.Aggregate"}) {
		t.Errorf("HotIfaces = %v", pol.HotIfaces)
	}
}

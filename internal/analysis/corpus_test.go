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

// TestCkptstateCorpus pins the corpus's own Registry type so coverage,
// forwarders, constructor exclusion, and directives all exercise the
// same machinery the real checkpoint registry goes through.
func TestCkptstateCorpus(t *testing.T) {
	pol := corpusPolicy("ckptstate")
	pol.CkptRegistries = []string{"flvet/corpus/ckptstate.Registry"}
	runCorpus(t, "ckptstate", pol)
}

// TestCkptstateRemoteCorpus pins a registry whose forwarder lives in a
// package the corpus run does not load: the checker must load it on demand.
func TestCkptstateRemoteCorpus(t *testing.T) {
	_, module, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pol := corpusPolicy("ckptstate")
	pol.CkptRegistries = []string{module + "/internal/analysis/testdata/src/ckptremote/reg.Registry"}
	runCorpus(t, "ckptremote", pol)
}

// TestAllowCorpus exercises the directive machinery: suppression in both
// placements, mandatory reasons, unknown names, unused directives.
func TestAllowCorpus(t *testing.T) {
	runCorpus(t, "allow", corpusPolicy("detwall", "maporder"))
}

// TestCheckerDocs keeps every checker addressable by directives and the
// -list flag, and pins the suite (which also rules out duplicate names).
func TestCheckerDocs(t *testing.T) {
	var names []string
	for _, c := range Checkers() {
		if c.Name == "" || c.Doc == "" || c.Run == nil {
			t.Errorf("checker %+v incomplete", c)
		}
		if !checkerKnown(c.Name) {
			t.Errorf("checkerKnown(%q) = false", c.Name)
		}
		names = append(names, c.Name)
	}
	if got, want := strings.Join(names, " "), "detwall maporder goexec wirealloc nilsink ckptstate"; got != want {
		t.Errorf("suite = %s, want %s", got, want)
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
		{"wirealloc", "hieradmo/internal/transport", true},
		{"wirealloc", "hieradmo/internal/core", false},
		{"nilsink", "hieradmo/internal/telemetry", true},
		{"nilsink", "hieradmo/internal/core", false},
		// ckptstate is a whole-program checker with no package exemptions:
		// registration completeness is enforced wherever it appears.
		{"ckptstate", "hieradmo/internal/core", true},
		{"ckptstate", "hieradmo/internal/cluster", true},
		{"ckptstate", "hieradmo/internal/checkpoint", true},
		{"ckptstate", "hieradmo/internal/parallel", true},
	}
	for _, c := range cases {
		if got := pol.Applies(c.checker, c.pkg); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.checker, c.pkg, got, c.want)
		}
	}
	// One rule per checker, and none for a name the suite does not have.
	for _, c := range Checkers() {
		if pol.Rules[c.Name] == nil {
			t.Errorf("no policy rule for %s", c.Name)
		}
	}
	if len(pol.Rules) != len(Checkers()) {
		t.Errorf("%d policy rules for %d checkers", len(pol.Rules), len(Checkers()))
	}
	want := []string{"Counter", "Gauge", "Histogram", "Sink", "Tracer"}
	if fmt.Sprint(pol.NilGuardTypes) != fmt.Sprint(want) {
		t.Errorf("NilGuardTypes = %v, want %v", pol.NilGuardTypes, want)
	}
	if fmt.Sprint(pol.CkptRegistries) != fmt.Sprint([]string{"hieradmo/internal/checkpoint.Registry"}) {
		t.Errorf("CkptRegistries = %v", pol.CkptRegistries)
	}
}

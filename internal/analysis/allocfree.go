// The allocfree checker: functions pinned as hot-path roots by the policy
// (the per-round worker step, edge/tier update math, the GEMM/conv
// kernels, every robust.Aggregator implementation) must not allocate in
// steady state. The slab-arena work of PR 7/8 made these paths
// allocation-free; this checker keeps them that way at vet time instead
// of waiting for the perf gate's allocs/op budget to trip.
//
// Reporting is at the frontier: direct allocation sites inside a root are
// reported where they stand, and a call from a root into an in-module
// function that transitively allocates is reported at the call site with
// a witness chain (callee → ... → allocation site), so the fix or the
// //flvet:allow escape lands where the hot path actually crosses into
// allocating code. Cold paths — return statements, panic arguments,
// blocks gated on *.Tracing() — are exempt: the steady-state round body
// never executes them.
package analysis

import (
	"fmt"
	"sort"
	"strings"
)

var allocfreeChecker = &Checker{
	Name: "allocfree",
	Doc:  "pinned hot-path roots (worker step, aggregators, GEMM/conv kernels) must not allocate in steady state",
	Run:  runAllocfree,
}

// allocExternals names out-of-module functions known to allocate on every
// call. fmt-style variadic APIs are already caught by the boxing check at
// the call boundary; this list covers allocation hidden behind concrete
// signatures.
var allocExternals = map[string]string{
	"fmt.Sprintf":         "formats into a fresh string",
	"fmt.Sprint":          "formats into a fresh string",
	"fmt.Sprintln":        "formats into a fresh string",
	"fmt.Errorf":          "allocates an error",
	"errors.New":          "allocates an error",
	"strings.Join":        "builds a fresh string",
	"strings.Repeat":      "builds a fresh string",
	"strings.Split":       "allocates a slice of strings",
	"strings.Fields":      "allocates a slice of strings",
	"strings.ToUpper":     "builds a fresh string",
	"strings.ToLower":     "builds a fresh string",
	"strings.ReplaceAll":  "builds a fresh string",
	"strconv.Itoa":        "builds a fresh string",
	"strconv.FormatInt":   "builds a fresh string",
	"strconv.FormatUint":  "builds a fresh string",
	"strconv.FormatFloat": "builds a fresh string",
	"strconv.Quote":       "builds a fresh string",
	"sort.Float64s":       "boxes the slice into sort.Interface",
	"sort.Ints":           "boxes the slice into sort.Interface",
	"sort.Strings":        "boxes the slice into sort.Interface",
	"sort.Stable":         "allocates merge scratch",
}

// allocResult caches the whole-program allocation facts for one Run.
type allocResult struct {
	// witness maps each loaded function to its first hot allocation
	// witness; no entry = proven allocation-free through loaded code.
	witness map[*FuncInfo]*allocWitness
	// roots resolved from the policy, in deterministic order.
	roots []*FuncInfo
	// missing pinned names whose package IS loaded (rename protection).
	missing []string
}

// allocWitness explains why a function allocates: a direct site, a call
// into an allocating loaded callee, or a known-allocating external.
type allocWitness struct {
	site *AllocSite
	via  *FuncInfo
	ext  string
}

func runAllocfree(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	res := pass.Prog.allocFacts(pass.Policy)
	for _, name := range res.missing {
		if pinRootPkg(name) == pass.Pkg.Path && len(pass.Pkg.Files) > 0 {
			pass.Reportf(pass.Pkg.Files[0].Pos(),
				"pinned hot root %q not found in package %s (renamed? update Policy.HotFuncs/HotIfaces)",
				name, pass.Pkg.Path)
		}
	}
	for _, root := range res.roots {
		if root.Pkg != pass.Pkg {
			continue
		}
		pass.Prog.reportRoot(pass, root, res)
	}
}

// allocFacts resolves the pinned roots and computes the transitive
// allocation fact for every loaded function.
func (p *Program) allocFacts(pol Policy) *allocResult {
	if p.alloc != nil {
		return p.alloc
	}
	res := &allocResult{witness: make(map[*FuncInfo]*allocWitness)}

	// Fixpoint: a function allocates if it has a hot direct site, hot-calls
	// a known-allocating external, or hot-calls a loaded function that
	// allocates.
	for changed := true; changed; {
		changed = false
		for _, fi := range p.fnList {
			if res.witness[fi] != nil {
				continue
			}
			if w := p.allocWitnessOf(fi, res); w != nil {
				res.witness[fi] = w
				changed = true
			}
		}
	}

	// Roots: exact pinned functions plus every loaded implementation of the
	// pinned interface methods.
	seen := map[*FuncInfo]bool{}
	addRoot := func(fi *FuncInfo) {
		if fi != nil && !seen[fi] {
			seen[fi] = true
			res.roots = append(res.roots, fi)
		}
	}
	for _, name := range pol.HotFuncs {
		if fi := p.fnByName[name]; fi != nil {
			addRoot(fi)
		} else if p.hasLoadedPackage(pinRootPkg(name)) {
			res.missing = append(res.missing, name)
		}
	}
	for _, name := range pol.HotIfaces {
		dot := strings.LastIndex(name, ".")
		if dot < 0 {
			continue
		}
		tn := p.lookupTypeName(name[:dot])
		if tn == nil {
			if p.hasLoadedPackage(pinRootPkg(name)) {
				res.missing = append(res.missing, name)
			}
			continue
		}
		impls := p.implementers(tn.Type(), name[dot+1:])
		var infos []*FuncInfo
		for _, fn := range impls {
			if fi := p.FuncOf(fn); fi != nil {
				infos = append(infos, fi)
			}
		}
		if len(infos) == 0 && p.hasLoadedPackage(tn.Pkg().Path()) {
			res.missing = append(res.missing, name)
		}
		sort.Slice(infos, func(i, j int) bool {
			return infos[i].Obj.FullName() < infos[j].Obj.FullName()
		})
		for _, fi := range infos {
			addRoot(fi)
		}
	}
	p.alloc = res
	return res
}

// allocWitnessOf finds one hot allocation reason for fi under the current
// fixpoint state, or nil.
func (p *Program) allocWitnessOf(fi *FuncInfo, res *allocResult) *allocWitness {
	for i := range fi.Allocs {
		if !fi.Allocs[i].Cold {
			return &allocWitness{site: &fi.Allocs[i]}
		}
	}
	for i := range fi.Calls {
		call := &fi.Calls[i]
		if call.Cold {
			continue
		}
		for _, callee := range call.Callees {
			if cfi := p.FuncOf(callee); cfi != nil {
				if cfi != fi && res.witness[cfi] != nil {
					return &allocWitness{via: cfi}
				}
			} else if _, bad := allocExternals[callee.FullName()]; bad {
				return &allocWitness{ext: callee.FullName()}
			}
		}
	}
	return nil
}

// reportRoot emits the frontier findings for one pinned root: direct hot
// allocation sites, plus hot calls into allocating callees with a witness
// chain.
func (p *Program) reportRoot(pass *Pass, root *FuncInfo, res *allocResult) {
	name := shortFuncName(root.Obj.FullName())
	for i := range root.Allocs {
		a := &root.Allocs[i]
		if a.Cold {
			continue
		}
		pass.Reportf(a.Pos, "%s is a pinned allocation-free hot path: %s", name, a.Kind)
	}
	for i := range root.Calls {
		call := &root.Calls[i]
		if call.Cold {
			continue
		}
		var reasons []string
		for _, callee := range call.Callees {
			if cfi := p.FuncOf(callee); cfi != nil {
				if cfi != root && res.witness[cfi] != nil {
					reasons = append(reasons, p.witnessChain(cfi, res, 0))
				}
			} else if why, bad := allocExternals[callee.FullName()]; bad {
				reasons = append(reasons, fmt.Sprintf("%s %s", callee.FullName(), why))
			}
		}
		if len(reasons) == 0 {
			continue
		}
		kind := "call"
		if call.Dynamic {
			kind = "dynamic call"
		}
		pass.Reportf(call.Pos, "%s is a pinned allocation-free hot path: %s allocates (%s)",
			name, kind, strings.Join(reasons, "; "))
	}
}

// witnessChain renders "callee → ... → site" for the diagnostic message,
// using base filenames so baseline keys stay machine-independent.
func (p *Program) witnessChain(fi *FuncInfo, res *allocResult, depth int) string {
	w := res.witness[fi]
	name := shortFuncName(fi.Obj.FullName())
	if w == nil || depth > 5 {
		return name
	}
	if w.site != nil {
		return fmt.Sprintf("%s: %s at %s", name, w.site.Kind, p.shortPos(fi.Pkg, w.site.Pos))
	}
	if w.ext != "" {
		return fmt.Sprintf("%s → %s", name, w.ext)
	}
	return fmt.Sprintf("%s → %s", name, p.witnessChain(w.via, res, depth+1))
}

// shortFuncName strips import-path directories from a FullName, keeping
// messages compact and machine-independent:
// "(*hieradmo/internal/core.Leaf).Step" → "(*core.Leaf).Step".
func shortFuncName(full string) string {
	out := make([]byte, 0, len(full))
	start := 0
	for i := 0; i < len(full); i++ {
		switch full[i] {
		case '/':
			start = i + 1
		case '(', ')', '.', ' ', '[', ']', '*':
			out = append(out, full[start:i+1]...)
			start = i + 1
		}
	}
	return string(append(out, full[start:]...))
}

// pinRootPkg extracts the package path from a pinned-root name:
// "(*pkg/path.Type).Method", "(pkg/path.Type).Method" or "pkg/path.Func".
func pinRootPkg(name string) string {
	if i := strings.Index(name, "("); i >= 0 {
		name = strings.TrimLeft(name[i+1:], "*")
		if j := strings.Index(name, ")"); j >= 0 {
			name = name[:j]
		}
	}
	if dot := strings.LastIndex(name, "."); dot >= 0 {
		return name[:dot]
	}
	return name
}

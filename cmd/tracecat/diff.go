package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// errDiverged is what run returns once -diff has printed a divergence.
var errDiverged = errors.New("traces diverge")

// traceReader streams the events of one trace, skipping blank lines and,
// with node set, every event whose "node" field is not node.
type traceReader struct {
	name string
	node string
	sc   *bufio.Scanner
	n    int // events read so far, filtered out or not
}

func newTraceReader(name, node string, r io.Reader) *traceReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &traceReader{name: name, node: node, sc: sc}
}

// next returns the next event; ok is false at the end of the trace.
func (t *traceReader) next() (e event, ok bool, err error) {
	for t.sc.Scan() {
		line := bytes.TrimSpace(t.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		t.n++
		if e, err = parseLine(line); err != nil {
			return event{}, false, fmt.Errorf("%s: event %d: %w", t.name, t.n, err)
		}
		if t.node != "" && e.field("node") != t.node {
			continue
		}
		return e, true, nil
	}
	return event{}, false, t.sc.Err()
}

// diffFiles compares two trace files, or with node set that node's events of
// each, seq ignored.
func diffFiles(pathA, pathB, node string, context int, out io.Writer) error {
	fa, err := os.Open(pathA)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := os.Open(pathB)
	if err != nil {
		return err
	}
	defer fb.Close()
	return diffTraces(newTraceReader(pathA, node, fa), newTraceReader(pathB, node, fb), node == "", context, out)
}

// diffTraces reads a and b in step and stops at the first event whose seq
// (when withSeq), name or fields differ, or where one trace ends and the
// other goes on. It prints that event from both sides, the context events
// before it (which the traces share), and the field-level delta, and returns
// errDiverged; two traces with the same events print nothing.
func diffTraces(a, b *traceReader, withSeq bool, context int, out io.Writer) error {
	var recent []event // the last context events the traces share
	for shared := 0; ; shared++ {
		ea, okA, err := a.next()
		if err != nil {
			return err
		}
		eb, okB, err := b.next()
		if err != nil {
			return err
		}
		if !okA && !okB {
			return nil
		}
		if okA && okB && sameEvent(ea, eb, withSeq) {
			if context > 0 {
				if len(recent) == context {
					recent = append(recent[:0], recent[1:]...)
				}
				recent = append(recent, ea)
			}
			continue
		}
		fmt.Fprintf(out, "traces diverge at event %d (%d identical before it)\n", shared+1, shared)
		for _, e := range recent {
			fmt.Fprintf(out, "  %v\n", e)
		}
		side := func(mark string, r *traceReader, e event, ok bool) {
			if ok {
				fmt.Fprintf(out, "%s %s: %v\n", mark, r.name, e)
			} else {
				fmt.Fprintf(out, "%s %s: (end of trace)\n", mark, r.name)
			}
		}
		side("-", a, ea, okA)
		side("+", b, eb, okB)
		if okA && okB {
			for _, line := range delta(ea, eb, withSeq) {
				fmt.Fprintf(out, "    %s\n", line)
			}
		}
		return errDiverged
	}
}

func sameEvent(a, b event, withSeq bool) bool {
	return (!withSeq || a.seq == b.seq) && a.ev == b.ev && slices.Equal(a.fields, b.fields)
}

// delta lists how b differs from a: each changed value as "key: a → b", then
// the fields only a has (missing from b) and the fields only b has (extra).
func delta(a, b event, withSeq bool) []string {
	var lines []string
	if withSeq && a.seq != b.seq {
		lines = append(lines, fmt.Sprintf("seq: %d → %d", a.seq, b.seq))
	}
	if a.ev != b.ev {
		lines = append(lines, fmt.Sprintf("ev: %s → %s", a.ev, b.ev))
	}
	for _, f := range a.fields {
		if val, ok := b.lookup(f.key); !ok {
			lines = append(lines, fmt.Sprintf("missing: %s=%s", f.key, f.val))
		} else if val != f.val {
			lines = append(lines, fmt.Sprintf("%s: %s → %s", f.key, f.val, val))
		}
	}
	for _, f := range b.fields {
		if _, ok := a.lookup(f.key); !ok {
			lines = append(lines, fmt.Sprintf("extra: %s=%s", f.key, f.val))
		}
	}
	if len(lines) == 0 {
		lines = append(lines, "same fields in another order")
	}
	return lines
}

// Command tracecat pretty-prints and filters the JSONL event traces the
// other commands write with -trace-out. Each trace line is one event with a
// monotonic "seq" and an event name "ev"; tracecat renders them aligned and
// in their original field order, so two runs' traces can be eyeballed (or
// diffed) side by side.
//
// Usage:
//
//	tracecat run.trace                        # pretty-print everything
//	tracecat -ev quorum,timeout run.trace     # only fault events
//	tracecat -node edge-0 run.trace           # one node's view of a cluster run
//	tracecat -count run.trace                 # per-event totals
//	tracecat -check run.trace                 # verify seq is 1..N with no gaps
//	tracecat -diff a.trace b.trace            # first diverging event, field by field
//	tracecat -diff -node edge-0 a.trace b.trace  # the same, for one node's events
//
// With no file arguments the trace is read from stdin. -diff exits 0 when the
// two traces hold the same events and 1 at the first divergence. A cluster
// trace interleaves its nodes by arrival, so two runs of one config agree
// node by node, not line by line: -diff -node compares one node's events and
// ignores their seq.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errDiverged) {
		os.Exit(1) // the report is on stdout already
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecat:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracecat", flag.ContinueOnError)
	var (
		evFilter = fs.String("ev", "", "comma-separated event names to keep (empty keeps all)")
		nodeID   = fs.String("node", "", `keep only events whose "node" field equals this ID`)
		check    = fs.Bool("check", false, "verify the sequence numbers are 1..N with no gaps, print nothing on success")
		count    = fs.Bool("count", false, "print per-event totals instead of the events")
		diff     = fs.Bool("diff", false, "compare two traces and report the first event that differs")
		context  = fs.Int("context", 3, "with -diff, how many events before the divergence to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if *evFilter != "" || *check || *count {
			return fmt.Errorf("-diff compares whole traces or one node's events; it takes no -ev, -check or -count")
		}
		if fs.NArg() != 2 || *context < 0 {
			return fmt.Errorf("usage: tracecat -diff [-context N] [-node ID] a.trace b.trace")
		}
		return diffFiles(fs.Arg(0), fs.Arg(1), *nodeID, *context, out)
	}
	keep := map[string]bool{}
	for _, ev := range strings.Split(*evFilter, ",") {
		if ev = strings.TrimSpace(ev); ev != "" {
			keep[ev] = true
		}
	}

	readers := []io.Reader{os.Stdin}
	if files := fs.Args(); len(files) > 0 {
		readers = readers[:0]
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			readers = append(readers, f)
		}
	}

	totals := map[string]int{}
	var wantSeq uint64 = 1
	for _, r := range readers {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			e, err := parseLine(line)
			if err != nil {
				return fmt.Errorf("event %d: %w", wantSeq, err)
			}
			if *check {
				if e.seq != wantSeq {
					return fmt.Errorf("sequence gap: event %d carries seq %d", wantSeq, e.seq)
				}
				wantSeq++
			}
			if len(keep) > 0 && !keep[e.ev] {
				continue
			}
			if *nodeID != "" && e.field("node") != *nodeID {
				continue
			}
			totals[e.ev]++
			if *check || *count {
				continue
			}
			fmt.Fprintln(out, e)
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	if *count {
		names := make([]string, 0, len(totals))
		for ev := range totals {
			names = append(names, ev)
		}
		sort.Strings(names)
		for _, ev := range names {
			fmt.Fprintf(out, "%8d %s\n", totals[ev], ev)
		}
	}
	return nil
}

// field is one key/value pair of an event, rendered for display.
type field struct{ key, val string }

// event is one parsed trace line with its fields in original order.
type event struct {
	seq    uint64
	ev     string
	fields []field
}

func (e event) field(key string) string {
	val, _ := e.lookup(key)
	return val
}

// lookup returns the value of key and whether the event has that field.
func (e event) lookup(key string) (string, bool) {
	for _, f := range e.fields {
		if f.key == key {
			return f.val, true
		}
	}
	return "", false
}

func (e event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8d  %-20s", e.seq, e.ev)
	for _, f := range e.fields {
		fmt.Fprintf(&b, " %s=%s", f.key, f.val)
	}
	return b.String()
}

// parseLine decodes one JSONL event with a token walk instead of a map, so
// the fields keep the order the emitter wrote them in (maps would shuffle
// them and break side-by-side diffs).
func parseLine(line []byte) (event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return event{}, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return event{}, fmt.Errorf("trace line is not a JSON object: %q", line)
	}
	var e event
	for dec.More() {
		kt, err := dec.Token()
		if err != nil {
			return event{}, err
		}
		key, ok := kt.(string)
		if !ok {
			return event{}, fmt.Errorf("non-string key %v", kt)
		}
		vt, err := dec.Token()
		if err != nil {
			return event{}, err
		}
		var val string
		switch v := vt.(type) {
		case json.Number:
			val = v.String()
		case string:
			val = v
		case bool:
			val = strconv.FormatBool(v)
		case nil:
			val = "null"
		default:
			return event{}, fmt.Errorf("field %q holds a nested value; trace events are flat", key)
		}
		switch key {
		case "seq":
			n, ok := vt.(json.Number)
			if !ok {
				return event{}, fmt.Errorf("seq is not a number: %v", vt)
			}
			if e.seq, err = strconv.ParseUint(n.String(), 10, 64); err != nil {
				return event{}, fmt.Errorf("bad seq %v: %w", n, err)
			}
		case "ev":
			e.ev = val
		default:
			e.fields = append(e.fields, field{key: key, val: val})
		}
	}
	if _, err := dec.Token(); err != nil {
		return event{}, err
	}
	// One event per line: trailing bytes after the closing brace mean a torn
	// or concatenated write, not a trace line.
	if _, err := dec.Token(); err != io.EOF {
		return event{}, fmt.Errorf("trailing data after event object: %q", line)
	}
	if e.ev == "" {
		return event{}, fmt.Errorf("trace line is missing the \"ev\" field: %q", line)
	}
	return e, nil
}

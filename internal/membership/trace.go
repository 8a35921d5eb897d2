package membership

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// ChurnTrace is the replayable text format for churn plans: one event per
// line, `<action> <worker-id> @<round>`, with '#' comments and blank lines
// ignored. Example:
//
//	# seeded churn trace (edge rounds)
//	join worker-0-2 @3
//	leave worker-1-1 @7
//
// The same events can be given inline on a command line as a comma-separated
// spec: "join:worker-0-2@3,leave:worker-1-1@7" (see ParseSpec).

// ParseTrace reads a ChurnTrace from r.
func ParseTrace(r io.Reader) (Plan, error) {
	var p Plan
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || !strings.HasPrefix(fields[2], "@") {
			return Plan{}, fmt.Errorf("membership: trace line %d: want \"<action> <worker-id> @<round>\", got %q", lineNo, line)
		}
		ev, err := parseEvent(fields[0], fields[1], fields[2][1:])
		if err != nil {
			return Plan{}, fmt.Errorf("membership: trace line %d: %w", lineNo, err)
		}
		p.Events = append(p.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return Plan{}, fmt.Errorf("membership: read trace: %w", err)
	}
	return p, nil
}

// WriteTrace writes p to w in canonical (sorted) ChurnTrace form, so a
// written trace parses back to an equivalent plan.
func WriteTrace(w io.Writer, p Plan) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# churn trace: <action> <worker-id> @<edge-round>")
	for _, e := range p.normalized() {
		fmt.Fprintf(bw, "%s %s @%d\n", e.Action, e.Worker, e.Round)
	}
	return bw.Flush()
}

// ParseSpec parses the inline comma-separated plan form used by CLI flags:
// "join:worker-0-2@3,leave:worker-1-1@7". An empty spec is the empty plan.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		action, rest, ok := strings.Cut(part, ":")
		if !ok {
			return Plan{}, fmt.Errorf("membership: spec entry %q: want \"<action>:<worker-id>@<round>\"", part)
		}
		id, round, ok := strings.Cut(rest, "@")
		if !ok {
			return Plan{}, fmt.Errorf("membership: spec entry %q: missing @<round>", part)
		}
		ev, err := parseEvent(action, id, round)
		if err != nil {
			return Plan{}, fmt.Errorf("membership: spec entry %q: %w", part, err)
		}
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

// parseEvent assembles an Event from its three textual components.
func parseEvent(action, id, round string) (Event, error) {
	var ev Event
	switch action {
	case "join":
		ev.Action = ActionJoin
	case "leave":
		ev.Action = ActionLeave
	default:
		return Event{}, fmt.Errorf("unknown action %q (want join|leave)", action)
	}
	if id == "" || strings.ContainsFunc(id, unicode.IsSpace) {
		return Event{}, fmt.Errorf("bad worker ID %q", id)
	}
	ev.Worker = id
	// Only the canonical decimal spelling counts: "3x", "+3" and "03" are
	// not round 3.
	n, err := strconv.Atoi(round)
	if err != nil || n < 1 || strconv.Itoa(n) != round {
		return Event{}, fmt.Errorf("bad round %q (want a positive integer)", round)
	}
	ev.Round = n
	return ev, nil
}

package telemetry

import (
	"bytes"
	"testing"
)

// TestLedgerFacts records each fact once on a ledger over a three-level tree
// (root 0, edges 1, leaves 2): it must bump its counter once, add one to its
// level's tally and nothing elsewhere, and write exactly its one event, with
// the fields the trace has always carried, in their order. A ledger without
// a sink keeps the same tally.
func TestLedgerFacts(t *testing.T) {
	for _, row := range []struct {
		name    string
		record  func(l *Ledger)
		counter string // the metric the fact bumps by one
		fact    Fact
		tier    int
		event   string
	}{
		{"reject", func(l *Ledger) { l.RobustReject("edge-0", "edge", 1, 4, "worker-0-1") },
			"fl_robust_rejected_total", Rejected, 1,
			`{"seq":1,"ev":"robust_reject","node":"edge-0","tier":"edge","tier_index":1,"t":4,"from":"worker-0-1"}`},
		{"clip", func(l *Ledger) { l.RobustClip("cloud", "cloud", 0, 8, "edge-1", 2.5) },
			"fl_robust_clipped_total", Clipped, 0,
			`{"seq":1,"ev":"robust_clip","node":"cloud","tier":"cloud","tier_index":0,"t":8,"from":"edge-1","max_norm":2.5}`},
		{"quorum miss", func(l *Ledger) { l.QuorumMiss("edge", 1, 6, 1) },
			"fl_quorum_met_total", Missing, 1,
			`{"seq":1,"ev":"quorum","tier":"edge","tier_index":1,"t":6,"missing":1}`},
		{"stale", func(l *Ledger) { l.StaleMessage("worker-1-0", 2) },
			"fl_stale_messages_total", Stale, 2,
			`{"seq":1,"ev":"stale_message","node":"worker-1-0"}`},
		{"duplicate", func(l *Ledger) { l.DuplicateReport("edge-1", 1) },
			"fl_duplicate_reports_total", Duplicate, 1,
			`{"seq":1,"ev":"duplicate_report","node":"edge-1"}`},
		{"timeout", func(l *Ledger) { l.Timeout("edge-0", 1) },
			"fl_timeouts_total", TimedOut, 1,
			`{"seq":1,"ev":"timeout","node":"edge-0"}`},
		{"fast-forward", func(l *Ledger) { l.FastForward("worker-0-0", 2, 4, 8) },
			"fl_fastforward_resyncs_total", FastForwarded, 2,
			`{"seq":1,"ev":"fastforward_resync","node":"worker-0-0","from":4,"to":8}`},
		{"inject", func(l *Ledger) { l.AttackInject("worker-0-1", 2, "signflip") },
			"fl_attack_injected_total", Injected, 2,
			`{"seq":1,"ev":"attack_inject","node":"worker-0-1","t":2,"kind":"signflip"}`},
		{"join", func(l *Ledger) { l.MembershipJoin("worker-0-1", 4, false) },
			"fl_membership_joins_total", Joined, 2,
			`{"seq":1,"ev":"membership_join","node":"worker-0-1","t":4}`},
		{"reassign", func(l *Ledger) { l.MembershipJoin("worker-1-1", 8, true) },
			"fl_membership_reassigns_total", Reassigned, 2,
			`{"seq":1,"ev":"membership_reassign","node":"worker-1-1","t":8}`},
		{"leave", func(l *Ledger) { l.MembershipLeave("worker-1-0", 12) },
			"fl_membership_leaves_total", Left, 2,
			`{"seq":1,"ev":"membership_leave","node":"worker-1-0","t":12}`},
		{"retier", func(l *Ledger) { l.MembershipRetier(8, 2) },
			"fl_membership_retierings_total", Retiered, 0,
			`{"seq":1,"ev":"membership_retier","t":8,"moved":2}`},
		{"migrate", func(l *Ledger) { l.GammaMigration("edge-0", 10, "zero", 0) },
			"fl_membership_gamma_migrations_total", Migrated, 1,
			`{"seq":1,"ev":"gamma_migration","node":"edge-0","t":10,"policy":"zero","gamma":0}`},
	} {
		t.Run(row.name, func(t *testing.T) {
			var buf bytes.Buffer
			reg := NewRegistry()
			sink := New(reg, NewTracer(&buf))
			traced, bare := NewLedger(sink, 3), NewLedger(nil, 3)
			row.record(&traced)
			row.record(&bare)
			if err := sink.Tracer().Flush(); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != row.event+"\n" {
				t.Errorf("trace %q, want %q", got, row.event+"\n")
			}
			if got := reg.Counter(row.counter).Value(); got != 1 {
				t.Errorf("%s = %d, want 1", row.counter, got)
			}
			for _, l := range []struct {
				name   string
				ledger *Ledger
			}{{"with a sink", &traced}, {"without one", &bare}} {
				name, tally := l.name, l.ledger.Tally()
				for tier, counts := range tally.Tiers {
					for f, n := range counts {
						if want := b2i(tier == row.tier && Fact(f) == row.fact); n != want {
							t.Errorf("%s: level %d fact %d tallied %d, want %d", name, tier, f, n, want)
						}
					}
				}
				if tally.Total(row.fact) != 1 {
					t.Errorf("%s: fact %d totals %d, want 1", name, row.fact, tally.Total(row.fact))
				}
				if row.fact == Injected && tally.Injections["signflip"] != 1 {
					t.Errorf("%s: injections %v, want one signflip", name, tally.Injections)
				}
				if row.fact == Missing && tally.Missed[TierRound{Tier: 1, T: 6}] != 1 {
					t.Errorf("%s: misses %v, want one at level 1, t=6", name, tally.Missed)
				}
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLedgerMissesByLevel: the leaf parents' misses count as missing
// workers, every other level's as missing edges, as the fault report
// splits them.
func TestLedgerMissesByLevel(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(New(reg, nil), 4)
	l.QuorumMiss("edge", 2, 4, 2)
	l.QuorumMiss("region", 1, 8, 1)
	l.QuorumMiss("edge", 2, 4, 1)
	for _, c := range []struct {
		name string
		want int64
	}{{"fl_quorum_met_total", 3}, {"fl_quorum_missing_workers_total", 3}, {"fl_quorum_missing_edges_total", 1}} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	tally := l.Tally()
	if tally.Missed[TierRound{2, 4}] != 3 || tally.Missed[TierRound{1, 8}] != 1 || tally.Total(Missing) != 4 {
		t.Errorf("misses %v (total %d), want 3 at level 2 t=4 and 1 at level 1 t=8", tally.Missed, tally.Total(Missing))
	}
}

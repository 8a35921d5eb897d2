package telemetry

// The membership and attack events below are shared by both engines: each
// bumps its counter and, when tracing, emits one event with the same
// fields, so a simulation's trace and metrics of a scenario match the
// distributed runtime's.

// MembershipJoin records a worker admitted into a leaf parent's cohort at
// iteration t: a planned join, or a re-tiering reassignment.
func (s *Sink) MembershipJoin(node string, t int, reassigned bool) {
	if s == nil {
		return
	}
	ev := "membership_join"
	if reassigned {
		s.m.MembershipReassigns.Inc()
		ev = "membership_reassign"
	} else {
		s.m.MembershipJoins.Inc()
	}
	s.Emit(ev, String("node", node), Int("t", t))
}

// MembershipLeave records a worker retired after its final report at
// iteration t.
func (s *Sink) MembershipLeave(node string, t int) {
	if s == nil {
		return
	}
	s.m.MembershipLeaves.Inc()
	s.Emit("membership_leave", String("node", node), Int("t", t))
}

// MembershipRetier records a re-tiering step that moves `moved` workers,
// announced at iteration t.
func (s *Sink) MembershipRetier(t, moved int) {
	if s == nil {
		return
	}
	s.m.MembershipRetiers.Inc()
	s.Emit("membership_retier", Int("t", t), Int("moved", moved))
}

// GammaMigration records the γℓ migration a leaf parent whose cohort
// changed applied at iteration t under the named policy.
func (s *Sink) GammaMigration(node string, t int, policy string, gamma float64) {
	if s == nil {
		return
	}
	s.m.GammaMigrations.Inc()
	s.Emit("gamma_migration", String("node", node), Int("t", t), String("policy", policy), Float("gamma", gamma))
}

// AttackInject records a Byzantine leaf mutating its boundary report at
// iteration t with the named attack kind.
func (s *Sink) AttackInject(node string, t int, kind string) {
	if s == nil {
		return
	}
	s.m.AttackInjected.Inc()
	s.Emit("attack_inject", String("node", node), Int("t", t), String("kind", kind))
}

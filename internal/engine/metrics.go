package engine

import "wlanmcast/internal/obs"

// Stats is a point-in-time copy of the engine's cumulative counters,
// as exposed on the assocd /metrics endpoint. All fields are totals
// since engine creation. The live counters are registry-backed
// atomics (see metrics below); Stats is only the snapshot shape.
type Stats struct {
	// Joins..DemandChanges count successfully applied events by kind.
	Joins, Leaves, UserMoves, DemandChanges uint64
	// APDowns and APUps count applied fault events by kind.
	APDowns, APUps uint64
	// Orphaned counts users disassociated by AP failures.
	Orphaned uint64
	// Rejected counts events that failed validation.
	Rejected uint64
	// Redecisions counts user decisions re-evaluated during repair.
	Redecisions uint64
	// Handoffs counts association changes.
	Handoffs uint64
	// Truncated counts events whose repair hit MaxRedecisions.
	Truncated uint64
	// Latency is the per-event wall-clock histogram.
	Latency obs.HistogramSnapshot
}

// metrics holds the engine's pre-resolved registry instruments. The
// metric names keep the assocd_ prefix the daemon has exposed since
// /metrics first shipped — the engine is the owner of those series
// now, but the wire names must not move (obs golden test).
//
// Everything here is atomic: the assocd /metrics handler reads these
// without taking the engine lock, concurrently with Apply.
type metrics struct {
	events      [len(eventKinds)]*obs.Counter // assocd_events_total{kind}, eventKinds order
	rejected    *obs.Counter
	redecisions *obs.Counter
	handoffs    *obs.Counter
	truncated   *obs.Counter
	latency     *obs.Histogram
	activeUsers *obs.Gauge
	apLoadTotal *obs.Gauge
	apLoadMax   *obs.Gauge
	// Fault families (fault_ prefix: availability state, not churn
	// accounting).
	apsDown     *obs.Gauge
	orphaned    *obs.Counter
	unsatisfied *obs.Gauge
	// Stage-attributed family (span.go); its label set is the
	// pipeline's stage enum.
	stageLat *obs.HistogramVec // assocd_stage_seconds{stage}
	// Multi-homing families (multihome.go). Registered always so the
	// exposition is stable; with MaxHomes <= 1 they mirror the
	// single-AP satisfied/max-load values and zero secondaries.
	mhSatisfied *obs.Gauge
	mhSecondary *obs.Gauge
	mhLoadMax   *obs.Gauge
}

// register resolves the engine's instruments, creating the families in
// the historical exposition order (the stage family appends after it —
// wire names, once exposed, never move).
func (m *metrics) register(reg *obs.Registry) {
	for i, k := range eventKinds {
		m.events[i] = reg.Counter("assocd_events_total", "Churn events applied, by kind.", obs.L("kind", string(k)))
	}
	m.rejected = reg.Counter("assocd_events_rejected_total", "Events that failed validation.")
	m.redecisions = reg.Counter("assocd_redecisions_total", "User decisions re-evaluated during repair.")
	m.handoffs = reg.Counter("assocd_handoffs_total", "Association changes.")
	m.truncated = reg.Counter("assocd_repairs_truncated_total", "Events whose repair hit the re-decision cap.")
	m.latency = reg.Histogram("assocd_event_latency_seconds", "Wall-clock time to apply one event.", obs.DefaultLatencyBounds())
	m.activeUsers = reg.Gauge("assocd_active_users", "Currently active user slots.")
	m.apLoadTotal = reg.Gauge("assocd_ap_load_total", "Sum of AP multicast loads.")
	m.apLoadMax = reg.Gauge("assocd_ap_load_max", "Maximum AP multicast load.")
	m.apsDown = reg.Gauge("fault_aps_down", "APs currently out of service.")
	m.orphaned = reg.Counter("fault_orphaned_users_total", "Users disassociated by AP failures.")
	m.unsatisfied = reg.Gauge("fault_unsatisfied_users", "Active users with no association (degraded service).")
	m.stageLat = reg.HistogramVec("assocd_stage_seconds",
		"Wall-clock spent per pipeline stage (queue_wait and the two handoff stages are always zero).",
		StageBounds(), "stage", stageNames)
	m.mhSatisfied = reg.Gauge("assocd_multihome_satisfied_users",
		"Users with at least one live home (primary or secondary).")
	m.mhSecondary = reg.Gauge("assocd_multihome_secondary_homes",
		"Secondary homes currently held across all users (0 when multi-homing is off).")
	m.mhLoadMax = reg.Gauge("assocd_multihome_ap_load_max",
		"Maximum AP multicast load including secondary-home contributions.")
}

// batchTally buffers the engine's counter increments for a call: the
// per-event latency histogram is observed live, but the plain counters
// accumulate here and reduce flushes them once per call, which also
// gives ApplyBatch its BatchResult totals.
type batchTally struct {
	events                                     [len(eventKinds)]uint64
	orphaned, redecisions, handoffs, truncated uint64
}

// count accounts one successfully applied event into the tally.
func (t *batchTally) count(kind EventKind, res *ApplyResult) {
	t.events[kindSlot(kind)]++
	t.redecisions += uint64(res.Redecisions)
	t.handoffs += uint64(res.Moves)
	if res.Truncated {
		t.truncated++
	}
	t.orphaned += uint64(res.Orphaned)
}

// applyTally flushes the call's tally into the live counters and
// resets it.
func (m *metrics) applyTally(t *batchTally) {
	for i, c := range t.events {
		m.events[i].Add(c)
	}
	m.redecisions.Add(t.redecisions)
	m.handoffs.Add(t.handoffs)
	m.truncated.Add(t.truncated)
	m.orphaned.Add(t.orphaned)
	*t = batchTally{}
}

// snapshot copies the live counters into a Stats.
func (m *metrics) snapshot() Stats {
	s := Stats{
		Orphaned:    m.orphaned.Value(),
		Rejected:    m.rejected.Value(),
		Redecisions: m.redecisions.Value(),
		Handoffs:    m.handoffs.Value(),
		Truncated:   m.truncated.Value(),
		Latency:     m.latency.Snapshot(),
	}
	// Stats' per-kind fields, in eventKinds order.
	for i, p := range [...]*uint64{&s.Joins, &s.Leaves, &s.UserMoves, &s.DemandChanges, &s.APDowns, &s.APUps} {
		*p = m.events[i].Value()
	}
	return s
}

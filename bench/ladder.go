package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"

	"wlanmcast/internal/core"
	"wlanmcast/internal/engine"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wal"
	"wlanmcast/internal/wlan"
)

// The in-process ladder of a traced run: each rung calls one layer
// through its exported functions, on this workload's own network and
// trace, under a span. Rungs are grouped by the layer they time so a
// workload on which a layer does no work can zero the group.
var (
	engineRungs = []string{
		"engine.apply_ns_per_event", "engine.apply_allocs_per_event",
		"engine.apply_stream_ns_per_event", "engine.apply_stream_allocs_per_event",
		"engine.apply_batch_ns_per_event.shards1", "engine.apply_batch_ns_per_event.shards2",
		"engine.redecisions_per_event", "engine.moves_per_event", "engine.handoffs_per_event",
	}
	multiRungs    = []string{"core.augment_homes_s", "engine.multi_snapshot_s"}
	snapshotRungs = []string{"engine.snapshot_encode_s", "engine.snapshot_bytes", "engine.snapshot_restore_s"}
	walRungs      = []string{"wal.append_ns_per_record", "wal.append_bytes_per_event", "wal.sync_s", "wal.write_snapshot_s", "wal.replay_s"}
	wireRungs     = []string{"wire.decode_ns_per_event", "wire.bytes_per_event"}
	solveRungs    = []string{
		"core.ssa_s", "core.mnu_centralized_s", "core.bla_centralized_s", "core.mla_centralized_s",
		"core.mnu_distributed_s", "core.bla_distributed_s", "core.mla_distributed_s", "core.allocs_per_solve",
	}
	daemonRungs = []string{
		"assocd.cpu_s", "assocd.stage_s.validate", "assocd.stage_s.queue_wait", "assocd.stage_s.apply",
		"assocd.stage_s.handoff_depart", "assocd.stage_s.handoff_arrive", "assocd.stage_s.reduce",
		"assocd.wal_fsyncs", "assocd.wal_bytes", "assocd.snapshots", "assocd.replay_events",
		"assocd.recovery_s", "assocd.unattributed_fraction",
	}
)

// mallocs is the process's cumulative heap-object count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perOp runs fn under a span and returns nanoseconds per operation.
func (r *runner) perOp(name string, ops int, fn func() error) (float64, error) {
	d, err := r.timedOps(name, ops, fn)
	return float64(d) / float64(max(ops, 1)), err
}

// setupRungs times what set-up is made of: decoding the scenario
// document, the radio and grid lookups network construction repeats
// per link, and the construction itself.
func (r *runner) setupRungs(spec *scenario.Spec) error {
	doc, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	d, err := r.timed("scenario.spec_decode", func() error {
		_, err := scenario.Load(bytes.NewReader(doc))
		return err
	})
	if err != nil {
		return err
	}
	r.layer["scenario.spec_decode_s"] = d.Seconds()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	if d, err = r.timed("wlan.build", func() error {
		_, err := spec.Network()
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	r.layer["wlan.build_s"] = d.Seconds()
	r.layer["wlan.build_alloc_mb"] = float64(ms.TotalAlloc-alloc) / (1 << 20)

	table, err := radio.NewRateTable(spec.RateSteps)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	dist := make([]float64, 4096)
	for i := range dist {
		dist[i] = rng.Float64() * table.Range() * 1.25
	}
	const lookups = 1 << 20
	var sink radio.Mbps
	r.layer["radio.rate_lookup_ns"], _ = r.perOp("radio.rate_lookup", lookups, func() error {
		for i := 0; i < lookups; i++ {
			rate, _ := table.RateFor(dist[i&4095])
			sink += rate
		}
		return nil
	})
	runtime.KeepAlive(sink)

	grid, err := geom.NewGrid(spec.APPositions, table.Range())
	if err != nil {
		return err
	}
	queries := max(len(spec.UserPositions), 1<<17)
	var buf []int
	r.layer["geom.grid_near_ns"], _ = r.perOp("geom.grid_near", queries, func() error {
		for i := 0; i < queries; i++ {
			buf = grid.Near(spec.UserPositions[i%len(spec.UserPositions)], buf[:0])
		}
		return nil
	})
	return nil
}

// innerRungs times the three innermost operations every engine event
// is made of: a tracker move, a user relocation and one local
// decision. They run on a private network with every user on its
// strongest AP.
func (r *runner) innerRungs(spec *scenario.Spec) error {
	n, err := spec.Network()
	if err != nil {
		return err
	}
	assoc, err := (&core.SSA{}).Run(n)
	if err != nil {
		return err
	}
	tr, err := wlan.NewTracker(n, assoc)
	if err != nil {
		return err
	}
	users := n.NumUsers()
	rule := &core.Distributed{Objective: core.ObjMLA}
	reps := max(1, (1<<17)/max(users, 1))
	if r.layer["core.choose_ns"], err = r.perOp("core.choose", reps*users, func() error {
		for k := 0; k < reps; k++ {
			for u := 0; u < users; u++ {
				rule.Choose(n, tr, u)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Move every user that has a second AP in range there and back.
	type hop struct{ u, home, other int }
	var hops []hop
	for u := 0; u < users; u++ {
		home, nb := tr.APOf(u), n.NeighborAPs(u)
		if home < 0 || len(nb) < 2 {
			continue
		}
		other := nb[0]
		if other == home {
			other = nb[1]
		}
		hops = append(hops, hop{u, home, other})
	}
	if r.layer["wlan.tracker_move_ns"], err = r.perOp("wlan.tracker_move", 2*reps*len(hops), func() error {
		for k := 0; k < reps; k++ {
			for _, h := range hops {
				if err := tr.Move(h.u, h.other); err != nil {
					return err
				}
				if err := tr.Move(h.u, h.home); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Relocation needs the user off the tracker (engine invariant 1);
	// detach everyone once, then move users around the area.
	for u := 0; u < users; u++ {
		if tr.APOf(u) >= 0 {
			if err := tr.Disassociate(u); err != nil {
				return err
			}
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	relocs := max(users, 1<<15)
	pos := make([]geom.Point, relocs)
	for i := range pos {
		pos[i] = spec.UserPositions[rng.Intn(users)]
	}
	r.layer["wlan.move_user_ns"], err = r.perOp("wlan.move_user", relocs, func() error {
		for i, p := range pos {
			if err := n.MoveUser(i%users, p); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// engineLadder is the engine rungs of one engine workload: the same
// first `limit` trace events applied one per call, as a stream, and as
// batches on one and two shards, each on a fresh engine; then the
// multi-home derivation and the snapshot round trip on the last one.
func (r *runner) engineLadder(in *engineInputs, limit, window int) ([]byte, error) {
	events := in.events[:min(limit, len(in.events))]
	nEv := float64(len(events))
	r.counts["ladder_events"] = len(events)
	fresh := func(shards int) (*engine.Engine, error) {
		n, err := in.spec.Network()
		if err != nil {
			return nil, err
		}
		return engine.New(n, in.daemonConfig(shards))
	}
	chunks := func(fn func([]engine.Event) (engine.BatchResult, error)) func() error {
		return func() error {
			for s := 0; s < len(events); s += window {
				if _, err := fn(events[s:min(s+window, len(events))]); err != nil {
					return err
				}
			}
			return nil
		}
	}

	d, err := r.timed("engine.init", func() error {
		_, err := fresh(1)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.layer["engine.init_s"] = d.Seconds()

	e, err := fresh(1)
	if err != nil {
		return nil, err
	}
	var red, mov int
	m0 := mallocs()
	if r.layer["engine.apply_ns_per_event"], err = r.perOp("engine.apply", len(events), func() error {
		for _, ev := range events {
			res, err := e.Apply(ev)
			if err != nil {
				return err
			}
			red += res.Redecisions
			mov += res.Moves
		}
		return nil
	}); err != nil {
		return nil, err
	}
	r.layer["engine.apply_allocs_per_event"] = float64(mallocs()-m0) / nEv
	r.layer["engine.redecisions_per_event"] = float64(red) / nEv
	r.layer["engine.moves_per_event"] = float64(mov) / nEv
	r.layer["engine.handoffs_per_event"] = float64(e.Stats().Handoffs) / nEv

	if e, err = fresh(1); err != nil {
		return nil, err
	}
	m0 = mallocs()
	if r.layer["engine.apply_stream_ns_per_event"], err = r.perOp("engine.apply_stream", len(events), chunks(e.ApplyStream)); err != nil {
		return nil, err
	}
	r.layer["engine.apply_stream_allocs_per_event"] = float64(mallocs()-m0) / nEv

	for _, shards := range []int{1, 2} {
		if e, err = fresh(shards); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("engine.apply_batch_ns_per_event.shards%d", shards)
		if r.layer[name], err = r.perOp(fmt.Sprintf("engine.apply_batch.shards%d", shards), len(events), chunks(e.ApplyBatch)); err != nil {
			return nil, err
		}
	}

	if in.cfg.MaxHomes > 1 {
		n, err := in.spec.Network()
		if err != nil {
			return nil, err
		}
		primary, err := (&core.Distributed{Objective: core.ObjMLA}).Run(n)
		if err != nil {
			return nil, err
		}
		if d, err = r.timed("core.augment_homes", func() error {
			_, _, err := core.AugmentHomes(n, primary, nil, in.cfg.MaxHomes)
			return err
		}); err != nil {
			return nil, err
		}
		r.layer["core.augment_homes_s"] = d.Seconds()
		d, _ = r.timed("engine.multi_snapshot", func() error { e.MultiSnapshot(); return nil })
		r.layer["engine.multi_snapshot_s"] = d.Seconds()
	} else {
		r.zero(multiRungs...)
	}

	var blob []byte
	if d, err = r.timed("engine.snapshot_encode", func() (err error) {
		blob, err = e.EncodeSnapshot()
		return err
	}); err != nil {
		return nil, err
	}
	r.layer["engine.snapshot_encode_s"] = d.Seconds()
	r.layer["engine.snapshot_bytes"] = float64(len(blob))
	n, err := in.spec.Network()
	if err != nil {
		return nil, err
	}
	if d, err = r.timed("engine.snapshot_restore", func() error {
		_, err := engine.RestoreSnapshot(n, in.daemonConfig(2), blob)
		return err
	}); err != nil {
		return nil, err
	}
	r.layer["engine.snapshot_restore_s"] = d.Seconds()
	return blob, nil
}

// wireRung times the decode the daemon performs per event: one
// json.Unmarshal of an NDJSON line into engine.Event.
func (r *runner) wireRung(enc *encoded, limit int) error {
	n := min(limit, enc.len())
	var ev engine.Event
	var err error
	r.layer["wire.decode_ns_per_event"], err = r.perOp("wire.decode", n, func() error {
		for i := 0; i < n; i++ {
			ev = engine.Event{}
			if err := json.Unmarshal(enc.object(i), &ev); err != nil {
				return err
			}
		}
		return nil
	})
	r.layer["wire.bytes_per_event"] = float64(len(enc.lines(0, n))) / float64(max(n, 1))
	return err
}

// walRungs times the journal the way the durable daemon uses it: one
// record per stream window under the interval fsync policy, a forced
// sync, an atomic snapshot write, and a replay after reopening.
func (r *runner) walLadder(enc *encoded, limit, window int, snapshot []byte) error {
	dir := filepath.Join(r.tmp, "wal-ladder")
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval})
	if err != nil {
		return err
	}
	n := min(limit, enc.len()) / window * window
	records, bytesOut := n/window, 0
	if r.layer["wal.append_ns_per_record"], err = r.perOp("wal.append", records, func() error {
		for s := 0; s < n; s += window {
			rec := enc.lines(s, s+window)
			bytesOut += len(rec)
			if _, err := log.Append(rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r.layer["wal.append_bytes_per_event"] = float64(bytesOut) / float64(max(n, 1))
	d, err := r.timed("wal.sync", log.Sync)
	if err != nil {
		return err
	}
	r.layer["wal.sync_s"] = d.Seconds()
	if d, err = r.timed("wal.write_snapshot", func() error { return log.WriteSnapshot(log.LastSeq(), snapshot) }); err != nil {
		return err
	}
	r.layer["wal.write_snapshot_s"] = d.Seconds()
	if err := log.Close(); err != nil {
		return err
	}
	if log, err = wal.Open(dir, wal.Options{Policy: wal.SyncInterval}); err != nil {
		return err
	}
	defer log.Close()
	replayed := 0
	if d, err = r.timed("wal.replay", func() error {
		return log.Replay(0, func(uint64, []byte) error { replayed++; return nil })
	}); err != nil {
		return err
	}
	if replayed != records {
		return fmt.Errorf("wal replay returned %d of %d records", replayed, records)
	}
	r.layer["wal.replay_s"] = d.Seconds()
	return nil
}

package main

// Crash safety for assocd -serve. With -data-dir set, every state
// change the daemon acknowledges is journaled to a write-ahead log
// (internal/wal) before the response goes out, and the full daemon
// state — scenario request, engine snapshot, stream-session offsets —
// is periodically checkpointed as an atomic snapshot. On boot the
// daemon restores the newest snapshot and replays the journal tail
// through the same engine.ApplyBatch call the live handlers make, so a
// SIGKILL at any instant recovers to the exact state (same
// association bytes, same load floats, same counters) an
// uninterrupted run would have reached.
//
// Journal record layout: one JSON header line (recHeader) terminated
// by '\n', followed by hdr.N raw NDJSON event lines. Stream windows
// journal the client's raw bytes — no re-encode on the hot path —
// while batch endpoints re-marshal their decoded events one per line.
// Replay re-applies each record and cross-checks the recorded outcome
// (applied count and error-presence); any divergence fails boot
// loudly rather than serving silently wrong state.

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/engine"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wal"
	"wlanmcast/internal/wlan"
)

// Record types in the journal. Every mutation the daemon acks is one
// of these; replay dispatches on the type tag.
const (
	recScenario   = "scenario"   // Req = scenarioRequest; rebuilds the engine
	recBatch      = "batch"      // N events from /v1/events or /v1/trace (post-remap)
	recAssoc      = "assoc"      // Req = raw PUT /v1/assoc body
	recMultiAssoc = "multiassoc" // Req = raw PUT /v1/multiassoc body
	recWindow     = "window"     // N events from one stream window; Sess/Seq track resume
)

// recHeader is the first line of every journal record.
type recHeader struct {
	T string `json:"t"`
	// Req carries the raw request document for scenario and assoc
	// records (events travel as NDJSON lines after the header instead).
	Req json.RawMessage `json:"req,omitempty"`
	// N is the number of raw NDJSON event lines following the header.
	N int `json:"n,omitempty"`
	// Applied and Err record the outcome the live handler observed;
	// replay verifies it reproduces both or refuses to boot.
	Applied int  `json:"applied"`
	Err     bool `json:"err,omitempty"`
	// Sess/Seq bind a window record to its stream session: Seq is the
	// session's durable event offset after this window.
	Sess string `json:"sess,omitempty"`
	Seq  uint64 `json:"seq,omitempty"`
}

// daemonSnap is the snapshot payload: everything needed to boot
// without replaying the whole journal. json.Marshal sorts the
// sessions map keys, so identical states snapshot to identical bytes.
type daemonSnap struct {
	Scenario json.RawMessage   `json:"scenario"`
	Engine   json.RawMessage   `json:"engine"`
	Sessions map[string]uint64 `json:"sessions,omitempty"`
}

// durability is the daemon's journaling state. All fields are guarded
// by server.mu — the journal shares the engine's serialization point,
// which is what makes "apply + journal + session update" one atomic
// step with respect to crashes observed by clients.
type durability struct {
	log *wal.Log

	// Snapshot triggers: a checkpoint is cut when snapEvents events
	// have been journaled since the last one, or snapInterval has
	// elapsed (checked on the next journaled record), or on graceful
	// shutdown. lastSnapSeq is the journal seq the newest snapshot
	// covers; boot replays only records after it.
	snapEvents   int
	snapInterval time.Duration
	lastSnapSeq  uint64
	lastSnapTime time.Time
	eventsSince  int

	// scenarioRaw is the journal-canonical bytes of the current
	// scenario request, embedded in every snapshot so recovery can
	// rebuild the network layout before restoring mutable state.
	scenarioRaw json.RawMessage
}

// encodeRecord assembles a journal record payload: the header line
// plus the (already newline-terminated) raw event lines.
func encodeRecord(hdr recHeader, lines []byte) ([]byte, error) {
	h, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(h)+1+len(lines))
	buf = append(buf, h...)
	buf = append(buf, '\n')
	buf = append(buf, lines...)
	return buf, nil
}

// decodeRecord splits a journal record back into header and raw event
// lines.
func decodeRecord(payload []byte) (recHeader, []byte, error) {
	var hdr recHeader
	i := bytes.IndexByte(payload, '\n')
	if i < 0 {
		return hdr, nil, fmt.Errorf("record has no header line")
	}
	if err := json.Unmarshal(payload[:i], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("decode record header: %w", err)
	}
	return hdr, payload[i+1:], nil
}

// decodeRecordEvents parses the N NDJSON event lines of a batch or
// window record.
func decodeRecordEvents(hdr recHeader, lines []byte) ([]engine.Event, error) {
	events := make([]engine.Event, 0, hdr.N)
	for len(lines) > 0 {
		i := bytes.IndexByte(lines, '\n')
		if i < 0 {
			i = len(lines)
		}
		line := lines[:i]
		if i == len(lines) {
			lines = nil
		} else {
			lines = lines[i+1:]
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		events = append(events, engine.Event{})
		if err := json.Unmarshal(line, &events[len(events)-1]); err != nil {
			return nil, fmt.Errorf("decode journaled event %d: %w", len(events)-1, err)
		}
	}
	if len(events) != hdr.N {
		return nil, fmt.Errorf("record carries %d events, header says %d", len(events), hdr.N)
	}
	return events, nil
}

// marshalEventLines renders a decoded event slice as NDJSON for batch
// records (stream windows keep the client's raw bytes instead).
func marshalEventLines(events []engine.Event) ([]byte, error) {
	var buf bytes.Buffer
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// --- journaling (all methods require s.mu held) ---

// journalScenario records a scenario load. Scenario records are rare
// and rebuild everything downstream, so they fsync unconditionally
// regardless of policy — a daemon must never ack a scenario it could
// forget.
func (s *server) journalScenario(raw json.RawMessage) error {
	if s.dur == nil {
		return nil
	}
	payload, err := encodeRecord(recHeader{T: recScenario, Req: raw}, nil)
	if err != nil {
		return err
	}
	if _, err := s.dur.log.Append(payload); err != nil {
		return err
	}
	if err := s.dur.log.Sync(); err != nil {
		return err
	}
	s.dur.scenarioRaw = raw
	s.dur.eventsSince = 0
	return nil
}

// journalBatch records an event batch (from /v1/events or the
// remapped /v1/trace) together with its outcome. Rejected batches are
// journaled too: the engine counts rejections, and replay must
// reproduce the counters exactly.
func (s *server) journalBatch(events []engine.Event, applied int, applyErr error) error {
	if s.dur == nil {
		return nil
	}
	lines, err := marshalEventLines(events)
	if err != nil {
		return err
	}
	hdr := recHeader{T: recBatch, N: len(events), Applied: applied, Err: applyErr != nil}
	payload, err := encodeRecord(hdr, lines)
	if err != nil {
		return err
	}
	if _, err := s.dur.log.Append(payload); err != nil {
		return err
	}
	s.dur.eventsSince += len(events)
	return s.maybeSnapshotLocked()
}

// journalAssoc records a successful PUT /v1/assoc (a failed one
// mutates nothing, so it has no replay footprint).
func (s *server) journalAssoc(body []byte) error {
	if s.dur == nil {
		return nil
	}
	payload, err := encodeRecord(recHeader{T: recAssoc, Req: body}, nil)
	if err != nil {
		return err
	}
	if _, err := s.dur.log.Append(payload); err != nil {
		return err
	}
	s.dur.eventsSince++
	return s.maybeSnapshotLocked()
}

// journalMultiAssoc records a successful PUT /v1/multiassoc (a failed
// one mutates nothing, so it has no replay footprint).
func (s *server) journalMultiAssoc(body []byte) error {
	if s.dur == nil {
		return nil
	}
	payload, err := encodeRecord(recHeader{T: recMultiAssoc, Req: body}, nil)
	if err != nil {
		return err
	}
	if _, err := s.dur.log.Append(payload); err != nil {
		return err
	}
	s.dur.eventsSince++
	return s.maybeSnapshotLocked()
}

// journalWindow records one stream window: the client's raw NDJSON
// lines plus the session's new durable offset.
func (s *server) journalWindow(raw []byte, n, applied int, applyErr error, sess string, seq uint64) error {
	if s.dur == nil {
		return nil
	}
	hdr := recHeader{T: recWindow, N: n, Applied: applied, Err: applyErr != nil, Sess: sess, Seq: seq}
	payload, err := encodeRecord(hdr, raw)
	if err != nil {
		return err
	}
	if _, err := s.dur.log.Append(payload); err != nil {
		return err
	}
	s.dur.eventsSince += n
	return s.maybeSnapshotLocked()
}

// --- snapshots ---

// maybeSnapshotLocked cuts a checkpoint when either trigger fires.
// Requires s.mu held.
func (s *server) maybeSnapshotLocked() error {
	d := s.dur
	if d == nil || s.eng == nil {
		return nil
	}
	if d.eventsSince < d.snapEvents && time.Since(d.lastSnapTime) < d.snapInterval {
		return nil
	}
	if d.log.LastSeq() <= d.lastSnapSeq {
		return nil
	}
	return s.writeSnapshotLocked()
}

// writeSnapshotLocked unconditionally snapshots the full daemon state
// at the journal's current tail, then prunes segments and older
// snapshots the checkpoint has made redundant. Requires s.mu held.
func (s *server) writeSnapshotLocked() error {
	d := s.dur
	engBlob, err := s.eng.EncodeSnapshot()
	if err != nil {
		return fmt.Errorf("encode engine snapshot: %w", err)
	}
	snap := daemonSnap{Scenario: d.scenarioRaw, Engine: engBlob}
	if len(s.sessions) > 0 {
		snap.Sessions = s.sessions
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	seq := d.log.LastSeq()
	// The snapshot only covers what is durably on disk: flush and sync
	// the journal first so a crash right after the rename cannot leave
	// a snapshot that claims records the log lost.
	if err := d.log.Sync(); err != nil {
		return err
	}
	if err := d.log.WriteSnapshot(seq, blob); err != nil {
		return err
	}
	d.lastSnapSeq = seq
	d.lastSnapTime = time.Now()
	d.eventsSince = 0
	// GC: keep the newest two snapshots (belt and suspenders against a
	// torn newest) and drop journal segments the older one predates.
	if err := d.log.PruneSnapshots(2); err != nil {
		return err
	}
	return d.log.Prune(seq)
}

// --- boot recovery ---

// enableDurability opens (or creates) the data dir's journal and
// recovers whatever state it holds. Called once, before the server
// takes traffic.
func (s *server) enableDurability(opt serveOptions, stderr io.Writer) error {
	policy := wal.SyncInterval
	if opt.fsync != "" {
		var err error
		if policy, err = wal.ParsePolicy(opt.fsync); err != nil {
			return err
		}
	}
	log, err := wal.Open(opt.dataDir, wal.Options{
		Policy:   policy,
		Interval: opt.fsyncInterval,
		Metrics:  s.walMetrics,
	})
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	s.dur = &durability{
		log:          log,
		snapEvents:   opt.snapEvents,
		snapInterval: opt.snapInterval,
	}
	if s.dur.snapEvents <= 0 {
		s.dur.snapEvents = 4096
	}
	if s.dur.snapInterval <= 0 {
		s.dur.snapInterval = time.Minute
	}
	if err := s.recoverState(stderr); err != nil {
		log.Close()
		s.dur = nil
		return fmt.Errorf("recover %s: %w", opt.dataDir, err)
	}
	return nil
}

// buildFromRequest constructs the network and engine config a
// scenario request describes — shared by the live handler and boot
// recovery so a recovered engine is built by the exact same code
// path.
func (s *server) buildFromRequest(req scenarioRequest) (*wlan.Network, engine.Config, error) {
	var (
		n   *wlan.Network
		err error
	)
	if req.Spec != nil {
		n, err = req.Spec.Network()
	} else {
		n, err = scenario.GenerateNetwork(scenario.Params{
			NumAPs:      req.APs,
			NumUsers:    req.Users,
			NumSessions: req.Sessions,
			Seed:        req.Seed,
		})
	}
	if err != nil {
		return nil, engine.Config{}, fmt.Errorf("build network: %v", err)
	}
	obj := core.ObjMLA
	if req.Objective != "" {
		if obj, err = objectiveByName(req.Objective); err != nil {
			return nil, engine.Config{}, err
		}
	}
	mode := engine.ModeIncremental
	switch req.Mode {
	case "", "incremental":
	case "full", "full-recompute":
		mode = engine.ModeFullRecompute
	default:
		return nil, engine.Config{}, fmt.Errorf("unknown mode %q", req.Mode)
	}
	maxHomes := req.MaxHomes
	if maxHomes == 0 {
		maxHomes = s.multihome
	}
	return n, engine.Config{
		Objective:     obj,
		EnforceBudget: req.EnforceBudget,
		Hysteresis:    req.Hysteresis,
		Mode:          mode,
		ActiveUsers:   req.ActiveUsers,
		Shards:        req.Shards,
		MaxHomes:      maxHomes,
		Obs:           obs.NewRegistry(),
		Trace:         s.ring,
	}, nil
}

// recoverState restores the daemon from its data dir: newest snapshot
// first, then the journal tail replayed through the live apply paths.
// Any mismatch between a record's journaled outcome and its replayed
// outcome is a fatal boot error — a daemon that cannot prove its
// recovered state is exact must not serve.
func (s *server) recoverState(stderr io.Writer) error {
	d := s.dur
	start := time.Now()
	snapSeq, snapBlob, err := d.log.LatestSnapshot()
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	if snapBlob != nil {
		var snap daemonSnap
		if err := json.Unmarshal(snapBlob, &snap); err != nil {
			return fmt.Errorf("decode snapshot %d: %w", snapSeq, err)
		}
		var req scenarioRequest
		if err := json.Unmarshal(snap.Scenario, &req); err != nil {
			return fmt.Errorf("decode snapshot scenario: %w", err)
		}
		n, cfg, err := s.buildFromRequest(req)
		if err != nil {
			return fmt.Errorf("rebuild snapshot network: %w", err)
		}
		eng, err := engine.RestoreSnapshot(n, cfg, snap.Engine)
		if err != nil {
			return fmt.Errorf("restore engine snapshot: %w", err)
		}
		s.eng = eng
		d.scenarioRaw = snap.Scenario
		for tok, seq := range snap.Sessions {
			s.sessions[tok] = seq
		}
		s.scenarios.Inc()
		fmt.Fprintf(stderr, "assocd: recovered snapshot at journal seq %d (%d APs, %d users)\n",
			snapSeq, eng.NumAPs(), eng.NumUsers())
	}
	d.lastSnapSeq = snapSeq
	d.lastSnapTime = time.Now()

	records, events := 0, 0
	err = d.log.Replay(snapSeq, func(seq uint64, payload []byte) error {
		hdr, lines, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("journal seq %d: %w", seq, err)
		}
		records++
		switch hdr.T {
		case recScenario:
			var req scenarioRequest
			if err := json.Unmarshal(hdr.Req, &req); err != nil {
				return fmt.Errorf("journal seq %d: decode scenario: %w", seq, err)
			}
			n, cfg, err := s.buildFromRequest(req)
			if err != nil {
				return fmt.Errorf("journal seq %d: %w", seq, err)
			}
			eng, err := engine.New(n, cfg)
			if err != nil {
				return fmt.Errorf("journal seq %d: build engine: %w", seq, err)
			}
			s.eng = eng
			d.scenarioRaw = hdr.Req
			clear(s.sessions)
			s.scenarios.Inc()
		case recBatch, recWindow:
			if s.eng == nil {
				return fmt.Errorf("journal seq %d: %s record before any scenario", seq, hdr.T)
			}
			evs, err := decodeRecordEvents(hdr, lines)
			if err != nil {
				return fmt.Errorf("journal seq %d: %w", seq, err)
			}
			br, applyErr := s.eng.ApplyBatch(evs)
			if br.Applied != hdr.Applied || (applyErr != nil) != hdr.Err {
				return fmt.Errorf("journal seq %d: replay diverged: applied %d/%d err=%v, journal says %d err=%v",
					seq, br.Applied, len(evs), applyErr != nil, hdr.Applied, hdr.Err)
			}
			events += br.Applied
			if hdr.T == recWindow && hdr.Sess != "" {
				s.sessions[hdr.Sess] = hdr.Seq
			}
		case recAssoc:
			if s.eng == nil {
				return fmt.Errorf("journal seq %d: assoc record before any scenario", seq)
			}
			a, err := wlan.DecodeAssoc(hdr.Req, s.eng.NumAPs(), s.eng.NumUsers())
			if err != nil {
				return fmt.Errorf("journal seq %d: decode assoc: %w", seq, err)
			}
			if err := s.eng.SetAssoc(a); err != nil {
				return fmt.Errorf("journal seq %d: replay assoc: %w", seq, err)
			}
		case recMultiAssoc:
			if s.eng == nil {
				return fmt.Errorf("journal seq %d: multiassoc record before any scenario", seq)
			}
			ma, err := wlan.DecodeMultiAssoc(hdr.Req, s.eng.NumAPs(), s.eng.NumUsers(), s.eng.MaxHomes())
			if err != nil {
				return fmt.Errorf("journal seq %d: decode multiassoc: %w", seq, err)
			}
			if err := s.eng.SetMultiAssoc(ma); err != nil {
				return fmt.Errorf("journal seq %d: replay multiassoc: %w", seq, err)
			}
		default:
			return fmt.Errorf("journal seq %d: unknown record type %q", seq, hdr.T)
		}
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	s.walReplayRecords.Add(uint64(records))
	s.walReplayEvents.Add(uint64(events))
	s.walReplaySeconds.Set(elapsed.Seconds())
	if t := d.log.Torn(); t != nil {
		fmt.Fprintf(stderr, "assocd: journal tail repaired: dropped %d bytes at %s+%d (%s)\n",
			t.DroppedBytes, t.Path, t.Offset, t.Reason)
	}
	if records > 0 || snapBlob != nil {
		fmt.Fprintf(stderr, "assocd: replayed %d journal records (%d events) in %v; next seq %d\n",
			records, events, elapsed.Round(time.Millisecond), d.log.NextSeq())
	}
	return nil
}

// finalizeLocked is the graceful-shutdown tail: checkpoint whatever
// the journal holds beyond the last snapshot (so the next boot
// replays nothing), then sync and close the log. Requires s.mu held.
func (s *server) finalizeLocked(stderr io.Writer) {
	d := s.dur
	if d == nil {
		return
	}
	if s.eng != nil && d.log.LastSeq() > d.lastSnapSeq {
		if err := s.writeSnapshotLocked(); err != nil {
			fmt.Fprintf(stderr, "assocd: final snapshot failed: %v\n", err)
		}
	}
	if err := d.log.Sync(); err != nil {
		fmt.Fprintf(stderr, "assocd: final journal sync failed: %v\n", err)
	}
	if err := d.log.Close(); err != nil {
		fmt.Fprintf(stderr, "assocd: journal close failed: %v\n", err)
	}
}

// --- stream sessions ---

// maxSessions bounds the resume-offset map; beyond it the session
// with the smallest durable offset (ties: smallest token) is evicted
// — deterministically, so snapshots of identical histories stay
// byte-identical.
const maxSessions = 128

// rememberSession records a session's new durable offset, evicting
// the stalest entry if the map is full. Requires s.mu held.
func (s *server) rememberSession(tok string, seq uint64) {
	if _, ok := s.sessions[tok]; !ok && len(s.sessions) >= maxSessions {
		var evict string
		var min uint64
		first := true
		for t, q := range s.sessions {
			if first || q < min || (q == min && t < evict) {
				evict, min, first = t, q, false
			}
		}
		delete(s.sessions, evict)
	}
	s.sessions[tok] = seq
}

// newSessionToken mints a random token for clients that connect
// without one.
func newSessionToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("s%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

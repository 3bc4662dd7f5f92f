package main

// The command log and crash safety for assocd -serve. Every mutation
// the daemon makes is a command: a scenario, an event batch (one
// /v1/events body), a stream window, an assoc install or a multiassoc
// install. A command is one journal record's header plus its payload,
// decoded once, and exec is the only code that applies one. A live
// handler decodes its request into a command, execs it, journals the
// record (with -data-dir) and only then acks. The scenario request is
// written once more, as its own scenario file, and the rest of the
// daemon state (engine snapshot, stream-session offsets) is
// periodically checkpointed as an atomic snapshot that names that
// file. Boot restores the newest snapshot and runs each journal record
// after it
// through decodeRecord, decodeCommand and the same exec, then checks
// the outcome the record holds (applied count and error presence). Any
// divergence fails boot loudly rather than serving silently wrong
// state, so a SIGKILL at any instant recovers to the exact state (same
// association bytes, same load floats, same counters) an uninterrupted
// run would have reached.
//
// The daemon fail-stops. The first storage error (append, sync or
// snapshot) or internal engine error is latched; from then on every
// mutating route answers 503, while the read routes keep serving the
// in-memory state. Recovery is a restart, which boots the acked prefix
// from the journal.
//
// Journal record layout: one JSON header line (recHeader) terminated
// by '\n', followed by hdr.N raw NDJSON event lines. Stream windows
// journal the client's raw bytes — no re-encode on the hot path —
// while /v1/events re-marshals its decoded events one per line.

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"wlanmcast/internal/core"
	"wlanmcast/internal/engine"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wal"
	"wlanmcast/internal/wlan"
)

// Record types in the journal, one per kind of command.
const (
	recScenario   = "scenario"   // Req = scenarioRequest; rebuilds the engine
	recBatch      = "batch"      // N events from one /v1/events body
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
// without replaying the whole journal. encodeSnapshot writes it in
// the v2 binary envelope, which names the scenario file (Ref); the
// v1 binary and the JSON envelope carry the request inline (Scenario)
// and are still read. The JSON tags read the JSON one.
type daemonSnap struct {
	Scenario json.RawMessage   `json:"scenario"`
	Ref      scenarioRef       `json:"-"`
	Engine   json.RawMessage   `json:"engine"`
	Sessions map[string]uint64 `json:"sessions,omitempty"`
}

// scenarioRef names a scenario file and pins its content. Seq is the
// journal seq of the scenario record (for a scenario first read from
// an older inline envelope, the seq of that checkpoint); Len and CRC
// are the request's length and CRC32C. The zero value names no file.
type scenarioRef struct {
	Seq, Len uint64
	CRC      uint32
}

// The binary snapshot envelopes:
//
//	"ASNP" 0x02                   magic, version
//	seq, len, crc                 the scenarioRef of scenario-<seq>.scn
//	len, engine                   engine.EncodeSnapshot's blob
//	count, then per session:      strictly ascending by token
//	  len, token, offset
//
// and the same with "ASNP" 0x01 and (len, scenario request) in place
// of the scenarioRef. All integers are minimal unsigned varints, and
// nothing follows the last session, so a decodable envelope has one
// encoding. An envelope whose first byte is '{' is the JSON one
// (daemonSnap's tags). Only v2 is written.
const (
	snapEnvelopeV1 = "ASNP\x01"
	snapEnvelopeV2 = "ASNP\x02"
)

// encodeSnapshot assembles a v2 snapshot envelope. Sessions are
// written sorted by token, so identical states give identical bytes.
func encodeSnapshot(snap daemonSnap) []byte {
	size := len(snapEnvelopeV2) + 5*binary.MaxVarintLen64 + len(snap.Engine)
	for tok := range snap.Sessions {
		size += 2*binary.MaxVarintLen64 + len(tok)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapEnvelopeV2...)
	buf = binary.AppendUvarint(buf, snap.Ref.Seq)
	buf = binary.AppendUvarint(buf, snap.Ref.Len)
	buf = binary.AppendUvarint(buf, uint64(snap.Ref.CRC))
	buf = appendSection(buf, snap.Engine)
	return appendSessions(buf, snap.Sessions)
}

// appendSessions appends the session count, then each session's
// token and offset in token order.
func appendSessions(buf []byte, sessions map[string]uint64) []byte {
	toks := make([]string, 0, len(sessions))
	for tok := range sessions {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	buf = binary.AppendUvarint(buf, uint64(len(toks)))
	for _, tok := range toks {
		buf = appendSection(buf, []byte(tok))
		buf = binary.AppendUvarint(buf, sessions[tok])
	}
	return buf
}

// decodeSnapshot reads a snapshot envelope, v2, v1 or JSON. The
// binary sections are sliced out of blob, not copied or scanned.
func decodeSnapshot(blob []byte) (daemonSnap, error) {
	var snap daemonSnap
	if len(blob) > 0 && blob[0] == '{' {
		err := json.Unmarshal(blob, &snap)
		return snap, err
	}
	var err error
	if rest, ok := bytes.CutPrefix(blob, []byte(snapEnvelopeV2)); ok {
		if snap.Ref, rest, err = cutScenarioRef(rest); err != nil {
			return snap, err
		}
		return decodeSnapshotTail(snap, rest)
	}
	if rest, ok := bytes.CutPrefix(blob, []byte(snapEnvelopeV1)); ok {
		if snap.Scenario, rest, err = cutSection(rest); err != nil {
			return snap, err
		}
		return decodeSnapshotTail(snap, rest)
	}
	return snap, fmt.Errorf("not a snapshot envelope")
}

// cutScenarioRef splits a v2 envelope's scenarioRef off the front of b.
func cutScenarioRef(b []byte) (ref scenarioRef, rest []byte, err error) {
	var crc uint64
	if ref.Seq, rest, err = cutUvarint(b); err != nil {
		return ref, nil, err
	}
	if ref.Len, rest, err = cutUvarint(rest); err != nil {
		return ref, nil, err
	}
	if crc, rest, err = cutUvarint(rest); err != nil {
		return ref, nil, err
	}
	if ref.Seq == 0 || crc > math.MaxUint32 {
		return ref, nil, fmt.Errorf("snapshot names no scenario file (seq %d, crc %#x)", ref.Seq, crc)
	}
	ref.CRC = uint32(crc)
	return ref, rest, nil
}

// decodeSnapshotTail reads the engine and sessions sections every
// binary envelope ends with.
func decodeSnapshotTail(snap daemonSnap, rest []byte) (daemonSnap, error) {
	var err error
	if snap.Engine, rest, err = cutSection(rest); err != nil {
		return snap, err
	}
	count, rest, err := cutUvarint(rest)
	if err != nil {
		return snap, err
	}
	if count > 0 {
		snap.Sessions = make(map[string]uint64, min(count, maxSessions))
	}
	prev := ""
	for i := uint64(0); i < count; i++ {
		var tok []byte
		if tok, rest, err = cutSection(rest); err != nil {
			return snap, err
		}
		if i > 0 && string(tok) <= prev {
			return snap, fmt.Errorf("snapshot session %q out of order after %q", tok, prev)
		}
		prev = string(tok)
		if snap.Sessions[prev], rest, err = cutUvarint(rest); err != nil {
			return snap, err
		}
	}
	if len(rest) > 0 {
		return snap, fmt.Errorf("%d trailing bytes after the snapshot envelope", len(rest))
	}
	return snap, nil
}

// appendSection appends b to buf behind its varint length.
func appendSection(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// cutSection splits a length-prefixed section off the front of b.
func cutSection(b []byte) (section, rest []byte, err error) {
	n, rest, err := cutUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("snapshot section of %d bytes overruns the %d left", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// cutUvarint splits a minimal varint off the front of b.
func cutUvarint(b []byte) (v uint64, rest []byte, err error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated snapshot envelope")
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("overlong varint in snapshot envelope")
	}
	return v, b[n:], nil
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
	// covers; boot replays only records after it. lastSnapScenario is
	// the scenario file that snapshot names.
	snapEvents       int
	snapInterval     time.Duration
	lastSnapSeq      uint64
	lastSnapScenario uint64
	lastSnapTime     time.Time
	eventsSince      int

	// scenario names the durable file of the current scenario request,
	// which every snapshot names so recovery can rebuild the network
	// layout before restoring mutable state. The request itself is not
	// kept: it is written once, when its record is journaled (or at
	// boot, when replay brought it in), and read back only at boot.
	scenario scenarioRef
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

// --- the command log ---

// command is one daemon mutation: a journal record's header plus its
// payload, decoded once. Live handlers build one from a request and
// boot replay from a journal record; exec applies both the same way.
type command struct {
	hdr recHeader
	// lines is a window's event lines as the client sent them, which is
	// what its record journals; a batch record marshals events instead.
	lines  []byte
	events []engine.Event   // batch, window
	from   uint64           // window: the session's offset before it
	eng    *engine.Engine   // scenario: the engine hdr.Req describes
	assoc  *wlan.Assoc      // assoc
	multi  *wlan.MultiAssoc // multiassoc
}

// batch reports whether c applies events. Those commands are journaled
// even when rejected, because the engine counted the rejection; a
// rejected install mutated nothing and leaves no record.
func (c *command) batch() bool { return c.hdr.T == recBatch || c.hdr.T == recWindow }

// record encodes c as a journal record payload. A batch marshals its
// events one per line; a window journals the client's lines as sent.
func (c *command) record() ([]byte, error) {
	lines := c.lines
	if c.hdr.T == recBatch {
		for i := range c.events {
			b, err := json.Marshal(&c.events[i])
			if err != nil {
				return nil, err
			}
			lines = append(append(lines, b...), '\n')
		}
	}
	return encodeRecord(c.hdr, lines)
}

// decodeCommand decodes a record's header and event lines into a
// command without mutating anything. Installs decode against the
// current engine's dimensions, so it requires s.mu held (or boot).
func (s *server) decodeCommand(hdr recHeader, lines []byte) (*command, error) {
	if s.eng == nil && hdr.T != recScenario {
		return nil, fmt.Errorf("%q record before any scenario", hdr.T)
	}
	c := &command{hdr: hdr, lines: lines}
	var err error
	switch hdr.T {
	case recScenario:
		var req scenarioRequest
		if err := json.Unmarshal(hdr.Req, &req); err != nil {
			return nil, fmt.Errorf("decode scenario: %w", err)
		}
		return s.scenarioCommand(req, hdr.Req)
	case recBatch, recWindow:
		c.events = make([]engine.Event, 0, hdr.N)
		for dec := json.NewDecoder(bytes.NewReader(lines)); dec.More(); {
			c.events = append(c.events, engine.Event{})
			if err := dec.Decode(&c.events[len(c.events)-1]); err != nil {
				return nil, fmt.Errorf("decode journaled event %d: %w", len(c.events)-1, err)
			}
		}
		if len(c.events) != hdr.N {
			return nil, fmt.Errorf("record carries %d events, header says %d", len(c.events), hdr.N)
		}
		c.from = hdr.Seq - uint64(hdr.N)
		if hdr.Err {
			c.from = hdr.Seq - uint64(hdr.Applied)
		}
	case recAssoc:
		c.assoc, err = wlan.DecodeAssoc(hdr.Req, s.eng.NumAPs(), s.eng.NumUsers())
	case recMultiAssoc:
		c.multi, err = wlan.DecodeMultiAssoc(hdr.Req, s.eng.NumAPs(), s.eng.NumUsers(), s.eng.MaxHomes())
	default:
		return nil, fmt.Errorf("unknown record type %q", hdr.T)
	}
	return c, err
}

// scenarioCommand builds the engine a scenario request describes, the
// same way for the live handler and for replay. raw is the request's
// journal-canonical bytes.
func (s *server) scenarioCommand(req scenarioRequest, raw json.RawMessage) (*command, error) {
	n, cfg, err := s.buildFromRequest(req)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(n, cfg)
	if err != nil {
		return nil, fmt.Errorf("build engine: %w", err)
	}
	return &command{hdr: recHeader{T: recScenario, Req: raw}, eng: eng}, nil
}

// exec applies c: apart from installing the boot snapshot, it is the
// only code that changes s.eng or s.sessions. It records a batch or
// window outcome in c.hdr (applied count, error presence, the window's
// new session offset) and returns the engine's result and c's error.
// An ApplyBatch error that is not a rejection (*engine.InvalidEventError)
// means an event failed halfway, so the engine can no longer be
// trusted: exec latches it. Requires s.mu held (or boot).
func (s *server) exec(c *command) (engine.BatchResult, error) {
	switch c.hdr.T {
	case recScenario:
		s.eng = c.eng
		// A new scenario invalidates every stream session's offsets.
		clear(s.sessions)
		s.scenarios.Inc()
		return engine.BatchResult{}, nil
	case recAssoc:
		return engine.BatchResult{}, s.eng.SetAssoc(c.assoc)
	case recMultiAssoc:
		return engine.BatchResult{}, s.eng.SetMultiAssoc(c.multi)
	}
	br, err := s.eng.ApplyBatch(c.events)
	c.hdr.Applied, c.hdr.Err = br.Applied, err != nil
	if err != nil {
		var rejected *engine.InvalidEventError
		if !errors.As(err, &rejected) {
			s.latch(fmt.Errorf("internal engine error at event %d of a %s: %w", br.Applied, c.hdr.T, err))
		}
	}
	if c.hdr.T == recWindow {
		// A rejected window advances the session only past its applied
		// prefix, so a reconnect resumes at the offending event. The
		// offset moves before the record is journaled: journaling can
		// cut a snapshot, and one whose engine holds this window but
		// whose sessions map does not would make a recovered daemon
		// re-accept (or reject) events it already applied.
		c.hdr.Seq = c.from + uint64(len(c.events))
		if err != nil {
			c.hdr.Seq = c.from + uint64(br.Applied)
		}
		if c.hdr.Sess != "" {
			s.rememberSession(c.hdr.Sess, c.hdr.Seq)
		}
	}
	return br, err
}

// commit is the live half of the command log: exec c, journal it, and
// return the HTTP status the call answers with. That is 200 once the
// record is journaled, 400 for a rejection, 500 when this call latched
// a failure, and 503 for every call after one. Requires s.mu held.
func (s *server) commit(c *command) (engine.BatchResult, int, error) {
	if err := s.failed(); err != nil {
		return engine.BatchResult{}, http.StatusServiceUnavailable, refusal(err)
	}
	br, err := s.exec(c)
	if ferr := s.failed(); ferr != nil {
		// An internal error is never acked, so it is not journaled.
		return br, http.StatusInternalServerError, ferr
	}
	if err != nil && !c.batch() {
		return br, http.StatusBadRequest, err
	}
	if jerr := s.journal(c); jerr != nil {
		return br, http.StatusInternalServerError, jerr
	}
	if err != nil {
		return br, http.StatusBadRequest, err
	}
	return br, http.StatusOK, nil
}

// journal appends c's record (with -data-dir). Scenario records fsync
// whatever the policy: a daemon must never ack a scenario it could
// forget. A failed append or sync latches the daemon and is returned,
// so the call is not acked. A failed snapshot, or a failed scenario
// file, after a good append latches too, but the record is in the
// journal, so the call is still acked. Requires s.mu held.
func (s *server) journal(c *command) error {
	d := s.dur
	if d == nil {
		return nil
	}
	payload, err := c.record()
	var seq uint64
	if err == nil {
		seq, err = d.log.Append(payload)
	}
	if err == nil && c.hdr.T == recScenario {
		err = d.log.Sync()
	}
	if err != nil {
		err = fmt.Errorf("journal: %w", err)
		s.latch(err)
		return err
	}
	switch c.hdr.T {
	case recScenario:
		d.eventsSince = 0
		if err := d.storeScenario(seq, c.hdr.Req); err != nil {
			s.latch(err)
		}
		return nil
	case recAssoc, recMultiAssoc:
		d.eventsSince++
	default:
		d.eventsSince += c.hdr.N
	}
	// Cut a checkpoint when either trigger fires.
	if d.eventsSince < d.snapEvents && time.Since(d.lastSnapTime) < d.snapInterval {
		return nil
	}
	if err := s.writeSnapshotLocked(); err != nil {
		s.latch(fmt.Errorf("snapshot: %w", err))
	}
	return nil
}

// latch records the daemon's first failure: a storage error or an
// internal engine error. From then on every mutating route answers
// 503, /healthz fails and assocd_failed reads 1; a restart recovers
// the acked prefix from the journal.
func (s *server) latch(err error) {
	if s.failure.CompareAndSwap(nil, &err) {
		fmt.Fprintf(s.errlog, "assocd: failed, refusing mutations until restart: %v\n", err)
	}
}

// failed returns the latched failure, or nil while the daemon is
// healthy.
func (s *server) failed() error {
	if p := s.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// refusal is the error a mutating call gets after a latched failure.
func refusal(err error) error {
	return fmt.Errorf("daemon failed earlier, restart to recover: %w", err)
}

// --- snapshots ---

// storeScenario makes raw, the scenario request journaled at seq,
// durable as scenario-<seq>.scn and the file the next snapshots name.
// Until it returns nil, d names no scenario and no snapshot is cut.
func (d *durability) storeScenario(seq uint64, raw []byte) error {
	d.scenario = scenarioRef{}
	crc, err := d.log.WriteScenario(seq, raw)
	if err != nil {
		return fmt.Errorf("scenario file: %w", err)
	}
	d.scenario = scenarioRef{Seq: seq, Len: uint64(len(raw)), CRC: crc}
	return nil
}

// writeSnapshotLocked unconditionally snapshots the engine and the
// stream sessions at the journal's current tail, naming the durable
// scenario file, then prunes what only older checkpoints needed.
// Requires s.mu held.
func (s *server) writeSnapshotLocked() error {
	d := s.dur
	if d.scenario.Seq == 0 {
		return fmt.Errorf("the scenario has no durable file to name")
	}
	engBlob, err := s.eng.EncodeSnapshot()
	if err != nil {
		return fmt.Errorf("encode engine snapshot: %w", err)
	}
	blob := encodeSnapshot(daemonSnap{Ref: d.scenario, Engine: engBlob, Sessions: s.sessions})
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
	older, olderScenario := d.lastSnapSeq, d.lastSnapScenario
	d.lastSnapSeq, d.lastSnapScenario = seq, d.scenario.Seq
	d.lastSnapTime = time.Now()
	d.eventsSince = 0
	// GC: keep this snapshot and the one cut or booted from before it
	// (belt and suspenders against a damaged newest), the scenario
	// files both name, and the journal segments after the older one, so
	// a boot that falls back to it still replays every record since.
	// Any other snapshot file goes, a damaged one boot skipped included.
	if err := d.log.PruneSnapshots(older, seq); err != nil {
		return err
	}
	if err := d.log.PruneScenarios(olderScenario, d.scenario.Seq); err != nil {
		return err
	}
	return d.log.Prune(older)
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
		Policy:       policy,
		Interval:     opt.fsyncInterval,
		SegmentBytes: opt.segmentBytes,
		Metrics:      s.walMetrics,
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
// scenario request describes (see scenarioCommand).
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
		if obj, err = core.ParseObjective(req.Objective); err != nil {
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
// first, then each journal record after it decoded and exec'd like a
// live call. Any mismatch between a record's journaled outcome and its
// replayed outcome is a fatal boot error — a daemon that cannot prove
// its recovered state is exact must not serve. A snapshot whose
// scenario file is missing, damaged or another one is fatal too. The
// current scenario's file is written before boot ends when it is not
// on disk yet: replay brought the scenario in, or the snapshot is an
// older envelope with the request inline.
func (s *server) recoverState(stderr io.Writer) error {
	d := s.dur
	start := time.Now()
	snapSeq, snapBlob, err := d.log.LatestSnapshot()
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	// pending is a scenario request whose file is still to be written.
	var pending struct {
		seq uint64
		raw []byte
	}
	if snapBlob != nil {
		snap, err := decodeSnapshot(snapBlob)
		if err != nil {
			return fmt.Errorf("decode snapshot %d: %w", snapSeq, err)
		}
		raw := []byte(snap.Scenario)
		if snap.Ref.Seq != 0 {
			if raw, err = d.log.ReadScenario(snap.Ref.Seq, snap.Ref.Len, snap.Ref.CRC); err != nil {
				return fmt.Errorf("snapshot %d: %w", snapSeq, err)
			}
			d.scenario = snap.Ref
			d.lastSnapScenario = snap.Ref.Seq
		} else {
			// An inline request has no record seq; the checkpoint's
			// seq names its file (no other scenario can hold it).
			pending.seq, pending.raw = snapSeq, raw
			d.lastSnapScenario = snapSeq
		}
		var req scenarioRequest
		if err := json.Unmarshal(raw, &req); err != nil {
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
		var c *command
		if err == nil {
			c, err = s.decodeCommand(hdr, lines)
		}
		if err != nil {
			return fmt.Errorf("journal seq %d: %w", seq, err)
		}
		records++
		br, err := s.exec(c)
		if ferr := s.failed(); ferr != nil {
			return fmt.Errorf("journal seq %d: %w", seq, ferr)
		}
		if err != nil && !c.batch() {
			return fmt.Errorf("journal seq %d: replay %s: %w", seq, hdr.T, err)
		}
		if c.hdr.Applied != hdr.Applied || c.hdr.Err != hdr.Err {
			return fmt.Errorf("journal seq %d: replay diverged: applied %d/%d err=%v, journal says %d err=%v",
				seq, c.hdr.Applied, len(c.events), c.hdr.Err, hdr.Applied, hdr.Err)
		}
		if hdr.T == recScenario {
			pending.seq, pending.raw = seq, hdr.Req
		}
		events += br.Applied
		return nil
	})
	if err != nil {
		return err
	}
	if pending.raw != nil {
		if err := d.storeScenario(pending.seq, pending.raw); err != nil {
			return err
		}
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
// replays nothing), then sync and close the log. A failed daemon
// writes no checkpoint: its engine may hold a mutation the journal
// does not. Requires s.mu held.
func (s *server) finalizeLocked(stderr io.Writer) {
	d := s.dur
	if d == nil {
		return
	}
	if s.eng != nil && s.failed() == nil && d.log.LastSeq() > d.lastSnapSeq {
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

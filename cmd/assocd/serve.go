package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wlanmcast/internal/engine"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wal"
	"wlanmcast/internal/wlan"
)

// server is the assocd -serve HTTP daemon: one online association
// engine behind a JSON API. All engine access is serialized by mu —
// the HTTP layer is the concurrency boundary. Every mutating route
// decodes its request into a command and runs it through exec, the
// one mutation site, then the journal, then acks (durable.go). After
// a storage or internal engine error the daemon is failed: mutating
// routes answer 503 until a restart. /v1/events and /v1/events/stream
// are two framings of one engine call: each request body or stream
// window is one engine.ApplyBatch. Clients that want seeded churn
// build it with engine.GenTrace and send it as events. Metrics live
// outside that boundary: the daemon-lifetime series sit in base, each
// engine carries its own registry of atomic instruments, and /metrics
// renders both without ever holding mu across an engine call.
//
// Endpoints:
//
//	POST /v1/scenario      load or generate a scenario, build the engine
//	POST /v1/events        apply churn events (one object or an array)
//	POST /v1/events/stream apply an NDJSON event stream with windowed acks
//	GET  /v1/status        engine summary
//	GET  /v1/assoc         association snapshot
//	PUT  /v1/assoc         force-install an association (validated)
//	GET  /v1/multiassoc    multi-connectivity AP-set snapshot
//	PUT  /v1/multiassoc    force-install user AP-sets (validated, normalized)
//	GET  /v1/loads         per-AP load vector, total, max
//	GET  /v1/trace/export  ring-buffered trace events as JSONL
//	GET  /metrics          Prometheus-style text exposition
//	GET  /debug/pprof/*    runtime profiles
//	GET  /healthz          liveness (503 once the daemon has failed)
//
// Neither /v1/trace/export nor /debug/pprof takes mu, so both answer
// while a batch runs: the goroutine profile (?debug=2) shows where an
// engine call is stuck, and the trace's last churn_event is the event
// applied just before it.
type server struct {
	mu      sync.Mutex
	eng     *engine.Engine
	started time.Time
	mux     *http.ServeMux

	// base holds the daemon-lifetime metrics; each loaded scenario's
	// engine brings its own registry (engine.Registry()) so counters
	// restart with the scenario, matching the pre-registry behavior.
	base *obs.Registry
	// ring buffers trace events across all scenarios for
	// /v1/trace/export.
	ring *obs.Ring
	// errlog receives panic reports (default os.Stderr; tests divert
	// it).
	errlog io.Writer
	// multihome is the default per-user AP-set cap for scenarios that
	// do not ask for one (the -multihome flag; <= 1 keeps single-AP
	// association).
	multihome int

	scenarios   *obs.Counter
	httpLatency *obs.Histogram
	panics      *obs.Counter

	// streamSlot is the /v1/events/stream single-flight guard: one
	// stream at a time, extras get 429 + Retry-After.
	streamSlot    atomic.Bool
	streamConns   *obs.Counter
	streamActive  *obs.Gauge
	streamEvents  *obs.Counter
	streamWindows *obs.Counter
	streamErrors  *obs.Counter
	streamBusy    *obs.Counter

	// dur is the crash-safety layer (nil without -data-dir): journal,
	// snapshots, boot recovery. Guarded by mu, like the engine.
	dur *durability
	// sessions maps stream session tokens to their durable event
	// offsets — the exactly-once resume bookkeeping. Guarded by mu.
	sessions map[string]uint64
	// draining flips when graceful shutdown begins: streams finish
	// their current window, send a drain frame, and terminate so the
	// journal can be finalized.
	draining atomic.Bool
	// failure is the latched first storage or internal engine error
	// (see latch); nil while the daemon is healthy. Written under mu,
	// read anywhere.
	failure atomic.Pointer[error]

	walMetrics       *wal.Metrics
	walReplayRecords *obs.Counter
	walReplayEvents  *obs.Counter
	walReplaySeconds *obs.Gauge
	walResumes       *obs.Counter
	walResumeSkipped *obs.Counter
}

// servedPaths is the label set for assocd_http_requests_total; paths
// outside it (scanners, typos) collapse into "other" to bound series
// cardinality.
var servedPaths = map[string]bool{
	"/v1/scenario": true, "/v1/events": true, "/v1/events/stream": true,
	"/v1/status": true, "/v1/assoc": true, "/v1/multiassoc": true,
	"/v1/loads": true, "/v1/trace/export": true,
	"/metrics": true, "/healthz": true,
}

func newServer() *server {
	s := &server{
		started: time.Now(),
		mux:     http.NewServeMux(),
		base:    obs.NewRegistry(),
		ring:    obs.NewRing(0),
		errlog:  os.Stderr,

		sessions: make(map[string]uint64),
	}
	// Uptime registers first so the exposition keeps opening with the
	// family it has led with since /metrics first shipped.
	s.base.GaugeFunc("assocd_uptime_seconds", "Time since the daemon started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.scenarios = s.base.Counter("assocd_scenarios_loaded_total", "Scenarios loaded over the daemon's lifetime.")
	s.httpLatency = s.base.Histogram("assocd_http_request_seconds", "Wall-clock time to serve one HTTP request.", nil)
	s.panics = s.base.Counter("assocd_panics_total", "Handler panics recovered by the HTTP middleware.")
	s.streamConns = s.base.Counter("assocd_stream_connections_total", "Event streams accepted on /v1/events/stream.")
	s.streamActive = s.base.Gauge("assocd_stream_active", "Event streams currently open (0 or 1; the endpoint is single-flight).")
	s.streamEvents = s.base.Counter("assocd_stream_events_total", "Events applied via the streaming endpoint.")
	s.streamWindows = s.base.Counter("assocd_stream_windows_total", "Ack windows completed on the streaming endpoint.")
	s.streamErrors = s.base.Counter("assocd_stream_errors_total", "Error frames sent on the streaming endpoint.")
	s.streamBusy = s.base.Counter("assocd_stream_busy_total", "Streams rejected with 429 because another stream was active.")
	s.base.GaugeFunc("assocd_trace_events", "Trace events recorded over the daemon's lifetime.",
		func() float64 { return float64(s.ring.Total()) })
	s.base.GaugeFunc("assocd_trace_dropped", "Trace events evicted from the export ring.",
		func() float64 { return float64(s.ring.Dropped()) })
	// Durability metrics register unconditionally — even without
	// -data-dir — so the exposition shape (and METRICS.md) is stable;
	// they simply stay at zero when journaling is off.
	s.walMetrics = wal.RegisterMetrics(s.base)
	s.walReplayRecords = s.base.Counter("assocd_wal_replay_records_total", "Journal records re-applied during boot recovery.")
	s.walReplayEvents = s.base.Counter("assocd_wal_replay_events_total", "Events re-applied from the journal during boot recovery.")
	s.walReplaySeconds = s.base.Gauge("assocd_wal_replay_seconds", "Wall-clock seconds the last boot recovery spent restoring and replaying.")
	s.walResumes = s.base.Counter("assocd_wal_resumes_total", "Stream connections that resumed an existing session.")
	s.walResumeSkipped = s.base.Counter("assocd_wal_resume_skipped_events_total", "Client-resent stream events skipped because they were already durably applied.")
	s.base.GaugeFunc("assocd_failed", "1 once a storage or internal engine error has failed the daemon (mutations answer 503 until a restart), else 0.",
		func() float64 {
			if s.failure.Load() != nil {
				return 1
			}
			return 0
		})
	s.mux.HandleFunc("/v1/scenario", s.handleScenario)
	s.mux.HandleFunc("/v1/events", s.handleEvents)
	s.mux.HandleFunc("/v1/events/stream", s.handleEventsStream)
	s.mux.HandleFunc("/v1/trace/export", s.handleTraceExport)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.HandleFunc("/v1/assoc", s.handleAssoc)
	s.mux.HandleFunc("/v1/multiassoc", s.handleMultiAssoc)
	s.mux.HandleFunc("/v1/loads", s.handleLoads)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.failed(); err != nil {
			httpError(w, http.StatusServiceUnavailable, "failed: %v", err)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		// A panicking handler must cost one request, not the daemon:
		// net/http would kill the connection and nothing else, so
		// convert it to a 500 here and account for it. WriteHeader is a
		// no-op (with a server-log complaint) if the handler already
		// sent headers; there is nothing better to do at that point.
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				// Deliberate connection abort (e.g. a stream whose
				// request body cannot be drained): let net/http tear the
				// connection down; it is not a daemon bug to count.
				panic(rec)
			}
			s.panics.Inc()
			fmt.Fprintf(s.errlog, "assocd: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			httpError(w, http.StatusInternalServerError, "internal error: %v", rec)
		}
		path := r.URL.Path
		if !servedPaths[path] {
			path = "other"
		}
		s.base.Counter("assocd_http_requests_total", "HTTP requests served, by path.", obs.L("path", path)).Inc()
		s.httpLatency.Observe(time.Since(start).Seconds())
	}()
	// A failed daemon refuses every mutation, before any work: each is
	// a POST or PUT under /v1/.
	if err := s.failed(); err != nil && r.Method != http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/") {
		httpError(w, http.StatusServiceUnavailable, "%v", refusal(err))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// serveOptions configures serveOn; the zero value runs an in-memory
// daemon with the compiled-in defaults (no journaling).
type serveOptions struct {
	// dataDir enables the durability layer: journal + snapshots live
	// there, and boot recovers from whatever the directory holds.
	dataDir       string
	fsync         string // wal policy name: always | interval | off
	fsyncInterval time.Duration
	snapEvents    int
	snapInterval  time.Duration
	segmentBytes  int64 // journal rotation size (0 = wal's default); no flag sets it
	// multihome is the default Config.MaxHomes for scenarios that do
	// not set "max_homes" (the -multihome flag).
	multihome int
}

// serveOn runs the daemon on ln until ctx is cancelled, then shuts
// down gracefully (in-flight requests get up to 5s to finish; open
// event streams drain at their next window boundary, and the journal
// is checkpointed and closed before serveOn returns, so a clean stop
// boots back with zero replay). The server carries defensive timeouts
// so one stalled or byte-dribbling client cannot pin a connection
// (and its goroutine) forever; the write timeout still leaves room
// for the longest legitimate response, a 30s pprof CPU profile.
func serveOn(ctx context.Context, ln net.Listener, stderr io.Writer, opt serveOptions) error {
	h := newServer()
	h.errlog = stderr
	h.multihome = opt.multihome
	if opt.dataDir != "" {
		if err := h.enableDurability(opt, stderr); err != nil {
			return err
		}
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "assocd: serving on http://%s\n", ln.Addr())
	finalize := func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.finalizeLocked(stderr)
	}
	select {
	case <-ctx.Done():
		// Flag the drain first: open streams stop at their next window
		// boundary (with a drain frame) instead of pinning Shutdown for
		// its whole grace period.
		h.draining.Store(true)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			finalize()
			return err
		}
		<-errc // http.ErrServerClosed
		finalize()
		return nil
	case err := <-errc:
		finalize()
		return err
	}
}

// --- request/response types ---

// scenarioRequest configures the engine. Either spec (a full scenario
// document, as produced by experiments gen) or the generator fields
// are given; spec wins when present.
type scenarioRequest struct {
	Spec *scenario.Spec `json:"spec,omitempty"`

	APs      int   `json:"aps,omitempty"`
	Users    int   `json:"users,omitempty"`
	Sessions int   `json:"sessions,omitempty"`
	Seed     int64 `json:"seed,omitempty"`

	Objective     string  `json:"objective,omitempty"` // mnu | bla | mla (default mla)
	EnforceBudget bool    `json:"enforce_budget,omitempty"`
	Hysteresis    float64 `json:"hysteresis,omitempty"`
	Mode          string  `json:"mode,omitempty"` // incremental | full (default incremental)
	ActiveUsers   int     `json:"active_users,omitempty"`
	// Shards is accepted and ignored (the engine is serial). It stays
	// so that old requests, journaled scenario records and snapshots
	// still decode; a negative value is still rejected.
	Shards int `json:"shards,omitempty"`
	// MaxHomes overrides the daemon's -multihome default for this
	// scenario (0 = use the default; <= 1 keeps single-AP association).
	MaxHomes int `json:"max_homes,omitempty"`
}

type statusResponse struct {
	APs         int     `json:"aps"`
	Users       int     `json:"users"`
	ActiveUsers int     `json:"active_users"`
	Satisfied   int     `json:"satisfied"`
	TotalLoad   float64 `json:"total_load"`
	MaxLoad     float64 `json:"max_load"`
	// MaxHomes and MultiSatisfied appear only when multi-homing is on
	// (MaxHomes > 1): the per-user AP-set cap and the users with at
	// least one live home (primary or secondary).
	MaxHomes       int `json:"max_homes,omitempty"`
	MultiSatisfied int `json:"multi_satisfied,omitempty"`
}

type eventsResponse struct {
	Applied     int     `json:"applied"`
	Redecisions int     `json:"redecisions"`
	Moves       int     `json:"moves"`
	TotalLoad   float64 `json:"total_load"`
	MaxLoad     float64 `json:"max_load"`
}

// --- handlers ---

func (s *server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req scenarioRequest
	if err := decodeBody(w, r, &req); err != nil {
		bodyError(w, "decode request", err)
		return
	}
	// The journal-canonical form is the decoded request re-marshaled:
	// recovery rebuilds the engine from exactly these bytes.
	raw, err := json.Marshal(req)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode scenario: %v", err)
		return
	}
	// Built outside mu: a large scenario must not stall the routes that
	// serve the current one.
	c, err := s.scenarioCommand(req, raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	_, code, err := s.commit(c)
	st := s.status(c.eng)
	s.mu.Unlock()
	if code != http.StatusOK {
		httpError(w, code, "%v", err)
		return
	}
	writeJSON(w, st)
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		bodyError(w, "read body", err)
		return
	}
	events, err := decodeEvents(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// One batch command through commit. A rejection applies the valid
	// prefix and answers 400 "event %d: ... (%d applied)", where
	// br.Applied is the index of the offending event; the engine
	// counted it, so the batch is journaled with its outcome.
	s.withEngine(w, func(*engine.Engine) {
		br, code, err := s.commit(&command{hdr: recHeader{T: recBatch, N: len(events)}, events: events})
		switch code {
		case http.StatusOK:
			writeJSON(w, eventsResponse{
				Applied:     br.Applied,
				Redecisions: br.Redecisions,
				Moves:       br.Moves,
				TotalLoad:   s.eng.TotalLoad(),
				MaxLoad:     s.eng.MaxLoad(),
			})
		case http.StatusBadRequest:
			httpError(w, code, "event %d: %v (%d applied)", br.Applied, err, br.Applied)
		default:
			httpError(w, code, "%v", err)
		}
	})
}

// handleStatus reports the engine summary — the operator's first stop
// before reaching for the trace export or pprof.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.withEngine(w, func(eng *engine.Engine) { writeJSON(w, s.status(eng)) })
}

func (s *server) handleAssoc(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.withEngine(w, func(eng *engine.Engine) {
			writeJSON(w, struct {
				Assoc       *wlan.Assoc `json:"assoc"`
				ActiveUsers int         `json:"active_users"`
				Satisfied   int         `json:"satisfied"`
			}{eng.Snapshot(), eng.ActiveUsers(), eng.Satisfied()})
		})
	case http.MethodPut:
		s.install(w, r, recAssoc)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or PUT required")
	}
}

// handleMultiAssoc serves the multi-connectivity AP-set snapshot and
// accepts externally computed AP-sets. A PUT body is the MultiAssoc
// wire form — a JSON array of per-user AP-id arrays — decoded against
// the engine's dimensions and its MaxHomes cap before anything moves;
// a rejected install leaves the engine untouched (the
// FuzzDecodeMultiAssoc contract). Accepted sets are normalized (the
// strongest-signal member becomes the primary) and the next
// derivation may extend them under the budgets, so a GET after a PUT
// returns the normalized, possibly extended sets.
func (s *server) handleMultiAssoc(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.withEngine(w, func(eng *engine.Engine) {
			ma := eng.MultiSnapshot()
			writeJSON(w, struct {
				MultiAssoc     *wlan.MultiAssoc `json:"multi_assoc"`
				MaxHomes       int              `json:"max_homes"`
				ActiveUsers    int              `json:"active_users"`
				Satisfied      int              `json:"satisfied"`
				SecondaryHomes int              `json:"secondary_homes"`
			}{ma, eng.MaxHomes(), eng.ActiveUsers(), ma.SatisfiedCount(), ma.SecondaryCount()})
		})
	case http.MethodPut:
		s.install(w, r, recMultiAssoc)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or PUT required")
	}
}

// install is the PUT half of /v1/assoc and /v1/multiassoc: the body
// is decoded against the engine's dimensions into an install command
// of kind t. A rejected install mutates nothing, so only an accepted
// body is journaled.
func (s *server) install(w http.ResponseWriter, r *http.Request, t string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		bodyError(w, "read body", err)
		return
	}
	s.withEngine(w, func(eng *engine.Engine) {
		c, err := s.decodeCommand(recHeader{T: t, Req: body}, nil)
		code := http.StatusBadRequest
		if err == nil {
			_, code, err = s.commit(c)
		}
		if err != nil {
			httpError(w, code, "%v", err)
			return
		}
		writeJSON(w, s.status(eng))
	})
}

func (s *server) handleLoads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.withEngine(w, func(eng *engine.Engine) {
		writeJSON(w, struct {
			Loads []float64 `json:"loads"`
			Total float64   `json:"total"`
			Max   float64   `json:"max"`
		}{eng.APLoads(), eng.TotalLoad(), eng.MaxLoad()})
	})
}

// handleMetrics renders the daemon registry followed by the current
// engine's. The engine lock is held only long enough to copy the
// engine pointer: every instrument is atomic, so a /metrics scrape
// never waits behind (or delays) an /v1/events apply.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	eng := s.eng
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.base.WriteProm(w); err != nil {
		return
	}
	if eng != nil {
		eng.Registry().WriteProm(w)
	}
}

// handleTraceExport streams the ring-buffered trace as JSONL. The
// ring snapshots under its own lock; the engine is never touched.
func (s *server) handleTraceExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.ring.WriteJSONL(w)
}

// withEngine runs f on the current engine with s.mu held, or answers
// 409 when no scenario is loaded yet.
func (s *server) withEngine(w http.ResponseWriter, f func(eng *engine.Engine)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng == nil {
		httpError(w, http.StatusConflict, "no scenario loaded; POST /v1/scenario first")
		return
	}
	f(s.eng)
}

// status must be called with mu held (or on a fresh engine).
func (s *server) status(eng *engine.Engine) statusResponse {
	resp := statusResponse{
		APs:         eng.NumAPs(),
		Users:       eng.NumUsers(),
		ActiveUsers: eng.ActiveUsers(),
		Satisfied:   eng.Satisfied(),
		TotalLoad:   eng.TotalLoad(),
		MaxLoad:     eng.MaxLoad(),
	}
	if eng.MaxHomes() > 1 {
		resp.MaxHomes = eng.MaxHomes()
		resp.MultiSatisfied = eng.MultiSatisfied()
	}
	return resp
}

// --- plumbing ---

// decodeEvents parses a /v1/events body: a single event object or an
// array of events. It is pure parsing over untrusted bytes — semantic
// validation (user ranges, kind checks) stays in the engine, which
// rejects bad events without touching the snapshot. The fuzz suite
// pins that split: arbitrary input yields an error or a decoded event
// list, never a panic.
func decodeEvents(body []byte) ([]engine.Event, error) {
	var events []engine.Event
	arrErr := json.Unmarshal(body, &events)
	if arrErr == nil {
		return events, nil
	}
	var one engine.Event
	if err := json.Unmarshal(body, &one); err != nil {
		return nil, fmt.Errorf("decode events: %w", arrErr)
	}
	return []engine.Event{one}, nil
}

const maxBody = 32 << 20 // scenarios with thousands of users fit easily

// decodeBody parses a JSON request body, hard-capped at maxBody.
// MaxBytesReader (unlike a silent LimitReader truncation) makes an
// oversized body a distinguishable error — bodyError turns it into a
// 413 — and closes the connection so the client stops sending.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// bodyError reports a body read/decode failure: 413 when the client
// blew the maxBody cap, 400 for everything else.
func bodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "%s: body exceeds %d bytes", what, tooBig.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "%s: %v", what, err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		return
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

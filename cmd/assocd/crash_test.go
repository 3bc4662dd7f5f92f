package main

// Kill-recovery differential harness: the real daemon runs as a
// subprocess (this test binary re-executed with ASSOCD_CRASH_HELPER=1
// drops straight into run()), gets SIGKILLed at a randomized
// mid-stream point, restarts over the same data directory, and the
// trace is finished through the resumable stream protocol. The final
// association, load vector, and deterministic engine counters must be
// byte-identical to an uninterrupted in-process reference run —
// exactly-once end to end, no matter where the kill landed. Seeds
// alternate fsync policies so both the skip path (durable past the
// last ack) and the rewind path (unsynced tail lost, daemon asks the
// client to back up) are exercised.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wlanmcast/internal/engine"
	"wlanmcast/internal/fault"
	"wlanmcast/internal/scenario"
)

// TestHelperDaemonProcess is not a test: it is the body of the daemon
// subprocess. The harness re-executes the test binary with
// -test.run '^TestHelperDaemonProcess$' and the real assocd argv in
// the environment.
func TestHelperDaemonProcess(t *testing.T) {
	if os.Getenv("ASSOCD_CRASH_HELPER") != "1" {
		t.Skip("daemon helper body; only runs when re-executed by the harness")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, strings.Split(os.Getenv("ASSOCD_CRASH_ARGS"), "\x1f"), os.Stderr))
}

// syncBuf collects subprocess stderr lines under a lock so the reader
// goroutine and test assertions do not race.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuf) appendLine(line string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.b.WriteString(line)
	b.b.WriteByte('\n')
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// crashDaemon is one assocd subprocess.
type crashDaemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	stderr  *syncBuf
	once    sync.Once
	waitErr error
}

// startCrashDaemon launches the daemon subprocess with the given
// assocd argv and blocks until it announces its listen address.
func startCrashDaemon(t *testing.T, args ...string) *crashDaemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperDaemonProcess$")
	cmd.Env = append(os.Environ(),
		"ASSOCD_CRASH_HELPER=1",
		"ASSOCD_CRASH_ARGS="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	killWithParent(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &crashDaemon{cmd: cmd, stderr: &syncBuf{}}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.appendLine(line)
			if a, ok := strings.CutPrefix(line, "assocd: serving on http://"); ok {
				select {
				case ready <- "http://" + a:
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-ready:
	case <-time.After(30 * time.Second):
		d.kill()
		t.Fatalf("daemon never announced its address; stderr:\n%s", d.stderr.String())
	}
	t.Cleanup(d.kill)
	return d
}

// kill SIGKILLs the daemon — the crash under test — and reaps it.
func (d *crashDaemon) kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		d.waitErr = d.cmd.Wait()
	})
}

// term asks for a graceful shutdown and returns the exit error (nil
// means exit status 0, i.e. the drain + final snapshot succeeded).
func (d *crashDaemon) term() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	d.once.Do(func() { d.waitErr = d.cmd.Wait() })
	return d.waitErr
}

func crashPost(t *testing.T, url, contentType, body string) string {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %s: %s", url, resp.Status, raw)
	}
	return string(raw)
}

func crashGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s: %s", url, resp.Status, raw)
	}
	return string(raw)
}

func crashScenario(seed int64) string {
	return fmt.Sprintf(`{"aps":10,"users":30,"sessions":2,"seed":%d,"active_users":20,"shards":2}`, seed)
}

// crashTrace mirrors the scenario above; seeds divisible by 3 get an
// AP fault schedule layered in, matching how loadgen drives the real
// daemon.
func crashTrace(t *testing.T, seed int64, events int) []engine.Event {
	t.Helper()
	trace, err := engine.GenTrace(engine.TraceParams{
		Seed:          seed,
		Events:        events,
		Area:          scenario.PaperDefaults().Area,
		Users:         30,
		InitialActive: 20,
		Sessions:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if seed%3 == 0 && len(trace) > 0 {
		sched, err := fault.Gen(fault.Params{
			Seed: seed + 1, APs: 10, Horizon: trace[len(trace)-1].At + 1e-9,
			MTBF: 2, MTTR: 1, GroupSize: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		trace = engine.MergeFaults(trace, sched)
	}
	return trace
}

// crashStream is the minimal resumable stream client: one session
// token, offset = last seq the client knows is applied.
type crashStream struct {
	session string
	offset  int
	window  int
	trace   []engine.Event
}

// attempt opens one stream connection offering trace[offset:]. When
// killAt >= 0, kill() fires as soon as an ack advances the session
// past that seq — so the daemon is provably mid-stream with durable
// progress, and keeps applying the next window right up to the
// SIGKILL (the crash point inside that window is whatever the race
// gives us). Returns done=true on the daemon's done frame;
// rewound=true when the daemon lost unsynced state and told the
// client to back up (offset is already rewound; retry against the
// same daemon); killed=true when kill() actually fired. done and
// killed can both be true: on a single CPU the daemon may apply the
// whole tail and flush its done frame before the SIGKILL lands, and
// the client still reads the buffered frames off the dead socket.
func (c *crashStream) attempt(t *testing.T, base string, killAt int, kill func()) (done, rewound, killed bool, err error) {
	t.Helper()
	// The frame loop below mutates c.offset; the writer must send from
	// the offset the resume parameter promised, captured before spawn.
	start := c.offset
	pr, pw := io.Pipe()
	go func() {
		enc := json.NewEncoder(pw)
		for i := start; i < len(c.trace); i++ {
			if enc.Encode(c.trace[i]) != nil {
				pw.CloseWithError(io.ErrClosedPipe)
				return
			}
		}
		pw.Close()
	}()
	defer pr.CloseWithError(io.ErrClosedPipe)

	u := fmt.Sprintf("%s/v1/events/stream?window=%d&session=%s&resume=%d",
		base, c.window, c.session, start)
	resp, err := http.Post(u, "application/x-ndjson", pr)
	if err != nil {
		return false, false, false, fmt.Errorf("open stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return false, false, false, fmt.Errorf("stream rejected: %s: %s", resp.Status, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var f streamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return false, false, killed, fmt.Errorf("bad frame %q: %v", sc.Text(), err)
		}
		switch {
		case f.Session != nil:
			c.session = f.Session.Token
			if int(f.Session.Seq) > c.offset {
				c.offset = int(f.Session.Seq) // daemon is ahead; it skips the overlap
			}
		case f.Ack != nil:
			c.offset = f.Ack.Seq
			if killAt >= 0 && c.offset >= killAt {
				killAt = -1
				killed = true
				kill()
			}
		case f.Done != nil:
			return true, false, killed, nil
		case f.Drain:
			return false, false, killed, fmt.Errorf("daemon draining")
		case f.Error != "":
			if strings.Contains(f.Error, "cannot resume from") {
				c.offset = f.Event
				return false, true, killed, nil
			}
			return false, false, killed, fmt.Errorf("daemon rejected stream at event %d: %s", f.Event, f.Error)
		}
	}
	return false, false, killed, fmt.Errorf("connection lost: %v", sc.Err())
}

// crashCounterFamilies extracts the deterministic engine counter
// sample lines from a /metrics exposition for comparison.
func crashCounterFamilies(text string) string {
	var lines []string
	for _, line := range strings.Split(text, "\n") {
		for _, fam := range []string{"assocd_events_total", "assocd_redecisions_total", "assocd_handoffs_total"} {
			if strings.HasPrefix(line, fam+"{") || strings.HasPrefix(line, fam+" ") {
				lines = append(lines, line)
			}
		}
	}
	return strings.Join(lines, "\n")
}

// crashReference streams the full trace into an uninterrupted
// in-process daemon and captures its final deterministic state.
func crashReference(t *testing.T, seed int64, trace []engine.Event, window int) (assoc, loads, counters string) {
	t.Helper()
	s := newServer()
	s.errlog = io.Discard
	ts := httptest.NewServer(s)
	defer ts.Close()
	crashPost(t, ts.URL+"/v1/scenario", "application/json", crashScenario(seed))
	cs := &crashStream{session: "ref", window: window, trace: trace}
	done, _, _, err := cs.attempt(t, ts.URL, -1, nil)
	if !done {
		t.Fatalf("reference stream did not finish: %v", err)
	}
	return crashGet(t, ts.URL+"/v1/assoc"),
		crashGet(t, ts.URL+"/v1/loads"),
		crashCounterFamilies(crashGet(t, ts.URL+"/metrics"))
}

// TestCrashRecoveryDifferential is the tentpole proof: for each seed,
// SIGKILL the daemon at a randomized mid-stream point (twice for some
// seeds), restart it over the same data directory, finish the trace
// via resume, and require the final state to match an uninterrupted
// reference run exactly.
func TestCrashRecoveryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-recovery suite is not -short")
	}
	const window, events = 8, 240
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			trace := crashTrace(t, seed, events)
			refAssoc, refLoads, refCounters := crashReference(t, seed, trace, window)

			// Odd seeds run fsync=interval: a SIGKILL can lose the
			// unsynced journal tail, forcing the rewind path. Even
			// seeds run fsync=always: acked means durable, so only
			// the skip path can appear.
			fsync := "always"
			if seed%2 == 1 {
				fsync = "interval"
			}
			dir := t.TempDir()
			args := []string{"-serve", "-addr", "127.0.0.1:0", "-shards", "2",
				"-data-dir", dir, "-fsync", fsync, "-snapshot-events", "64"}
			d := startCrashDaemon(t, args...)
			crashPost(t, d.base+"/v1/scenario", "application/json", crashScenario(seed))

			rnd := rand.New(rand.NewSource(seed * 7919))
			kills := 1
			if seed%4 == 1 {
				kills = 2
			}
			cs := &crashStream{session: fmt.Sprintf("seed-%d", seed), window: window, trace: trace}
			for attempt := 0; ; attempt++ {
				if attempt > 8 {
					t.Fatalf("trace did not finish after %d attempts (offset %d/%d)", attempt, cs.offset, len(trace))
				}
				killAt := -1
				remaining := len(trace) - cs.offset
				if kills > 0 && remaining > 40 {
					killAt = cs.offset + 8 + rnd.Intn(remaining-30)
				}
				done, rewound, killed, err := cs.attempt(t, d.base, killAt, d.kill)
				if killed {
					// The daemon is dead (even if it outran the SIGKILL
					// and flushed its done frame first — the restart's
					// resume handshake still proves the tail was durable
					// or rewinds us to resend it).
					kills--
					d = startCrashDaemon(t, args...)
					continue
				}
				if done {
					if killAt >= 0 {
						t.Fatalf("kill scheduled at seq %d never fired (final offset %d)", killAt, cs.offset)
					}
					break
				}
				if rewound {
					continue // same daemon, offset already backed up
				}
				t.Fatalf("stream failed without a kill in flight: %v", err)
			}

			gotAssoc := crashGet(t, d.base+"/v1/assoc")
			gotLoads := crashGet(t, d.base+"/v1/loads")
			gotCounters := crashCounterFamilies(crashGet(t, d.base+"/metrics"))
			if gotAssoc != refAssoc {
				t.Errorf("association diverged from the uninterrupted reference:\ngot:  %s\nwant: %s", gotAssoc, refAssoc)
			}
			if gotLoads != refLoads {
				t.Errorf("loads diverged from the uninterrupted reference:\ngot:  %s\nwant: %s", gotLoads, refLoads)
			}
			if gotCounters != refCounters {
				t.Errorf("engine counters diverged:\ngot:\n%s\nwant:\n%s", gotCounters, refCounters)
			}
		})
	}
}

// TestCrashGracefulShutdownZeroReplay pins the shutdown ordering
// contract end to end: SIGTERM must drain, checkpoint, and exit 0,
// and the next boot must recover purely from the snapshot — zero
// journal records replayed.
func TestCrashGracefulShutdownZeroReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-recovery suite is not -short")
	}
	dir := t.TempDir()
	args := []string{"-serve", "-addr", "127.0.0.1:0", "-shards", "2",
		"-data-dir", dir, "-fsync", "interval"}
	d := startCrashDaemon(t, args...)
	crashPost(t, d.base+"/v1/scenario", "application/json", crashScenario(7))
	for b := 0; b < 4; b++ {
		var lines []string
		for i := 0; i < 10; i++ {
			k := b*10 + i
			lines = append(lines, fmt.Sprintf(`{"kind":"move","user":%d,"pos":{"x":%d,"y":%d}}`,
				k%20, 40+(k*37)%1100, 40+(k*53)%900))
		}
		crashPost(t, d.base+"/v1/events", "application/json", "["+strings.Join(lines, ",")+"]")
	}
	assoc := crashGet(t, d.base+"/v1/assoc")
	loads := crashGet(t, d.base+"/v1/loads")
	if err := d.term(); err != nil {
		t.Fatalf("SIGTERM exit: %v\nstderr:\n%s", err, d.stderr.String())
	}

	d2 := startCrashDaemon(t, args...)
	boot := d2.stderr.String()
	if !strings.Contains(boot, "replayed 0 journal records") {
		t.Errorf("boot after clean shutdown was not replay-free:\n%s", boot)
	}
	if !strings.Contains(boot, "recovered snapshot at journal seq") {
		t.Errorf("boot did not recover from the final snapshot:\n%s", boot)
	}
	if got := crashGet(t, d2.base+"/v1/assoc"); got != assoc {
		t.Errorf("association changed across a graceful restart:\ngot:  %s\nwant: %s", got, assoc)
	}
	if got := crashGet(t, d2.base+"/v1/loads"); got != loads {
		t.Errorf("loads changed across a graceful restart:\ngot:  %s\nwant: %s", got, loads)
	}
}

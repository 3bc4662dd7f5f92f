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
	"errors"
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
	"wlanmcast/internal/obs"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/stream"
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

// crashCounterFamilies extracts the deterministic engine counter
// samples from a /metrics exposition for comparison.
func crashCounterFamilies(t *testing.T, text string) string {
	t.Helper()
	lines, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	var b strings.Builder
	for _, l := range lines {
		switch l.Name {
		case "assocd_events_total", "assocd_redecisions_total", "assocd_handoffs_total":
			fmt.Fprintf(&b, "%s%v %v\n", l.Name, l.Labels, l.Value)
		}
	}
	return b.String()
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
	c := &stream.Client{Base: ts.URL, Window: window, Events: trace, Session: "ref"}
	if _, err := c.Attempt(); err != nil {
		t.Fatalf("reference stream did not finish: %v", err)
	}
	return crashGet(t, ts.URL+"/v1/assoc"),
		crashGet(t, ts.URL+"/v1/loads"),
		crashCounterFamilies(t, crashGet(t, ts.URL+"/metrics"))
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
			c := &stream.Client{Window: window, Events: trace, Session: fmt.Sprintf("seed-%d", seed)}
			for attempt := 0; ; attempt++ {
				if attempt > 8 {
					t.Fatalf("trace did not finish after %d attempts (offset %d/%d)", attempt, c.Offset, len(trace))
				}
				killAt := -1
				remaining := len(trace) - c.Offset
				if kills > 0 && remaining > 40 {
					killAt = c.Offset + 8 + rnd.Intn(remaining-30)
				}
				// Kill as soon as an ack advances the session past killAt,
				// so the daemon is provably mid-stream with durable
				// progress and keeps applying the next window right up to
				// the SIGKILL (the crash point inside that window is
				// whatever the race gives us).
				killed, kill := false, d.kill
				c.Base = d.base
				c.OnAck = func(seq int) {
					if killAt >= 0 && seq >= killAt {
						killAt = -1
						killed = true
						kill()
					}
				}
				_, err := c.Attempt()
				if killed {
					// The daemon is dead (even if it outran the SIGKILL
					// and flushed its done frame first — the restart's
					// resume handshake still proves the tail was durable
					// or rewinds us to resend it).
					kills--
					d = startCrashDaemon(t, args...)
					continue
				}
				if err == nil {
					if killAt >= 0 {
						t.Fatalf("kill scheduled at seq %d never fired (final offset %d)", killAt, c.Offset)
					}
					break
				}
				if errors.As(err, new(stream.CannotResume)) {
					continue // same daemon, offset already backed up
				}
				t.Fatalf("stream failed without a kill in flight: %v", err)
			}

			gotAssoc := crashGet(t, d.base+"/v1/assoc")
			gotLoads := crashGet(t, d.base+"/v1/loads")
			gotCounters := crashCounterFamilies(t, crashGet(t, d.base+"/metrics"))
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

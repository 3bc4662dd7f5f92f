package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one assocd -serve subprocess on a loopback port the
// kernel picked (-addr 127.0.0.1:0; the daemon prints the address it
// got). started is the exec time, listening the time the "serving"
// line arrived.
type daemon struct {
	cmd       *exec.Cmd
	base      string
	started   time.Time
	listening time.Time

	mu      sync.Mutex
	tail    []byte // last stderr bytes, for error reports
	drained chan struct{}
}

const servingPrefix = "assocd: serving on http://"

// startDaemon execs bin -serve with args, env added to its
// environment, and waits for it to listen.
// ctx bounds the child's whole life: cancelling it kills the process.
func startDaemon(ctx context.Context, bin string, env []string, args ...string) (*daemon, error) {
	full := append([]string{"-serve", "-addr", "127.0.0.1:0"}, args...)
	cmd := exec.CommandContext(ctx, bin, full...)
	cmd.Env = append(os.Environ(), env...)
	// The child must not outlive a bench that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, servingPrefix); ok {
				select {
				case addr <- rest:
				default:
				}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line...)
			d.tail = append(d.tail, '\n')
			if len(d.tail) > 8<<10 {
				d.tail = d.tail[len(d.tail)-(8<<10):]
			}
			d.mu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		d.listening = time.Now()
		d.base = a
		return d, nil
	case <-d.drained:
		d.cmd.Wait()
		return nil, fmt.Errorf("assocd exited before listening: %s", d.stderrTail())
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(string(d.tail))
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon and returns once the process and the
// stderr reader have both ended. Safe to call twice.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// liveHeapMB returns the bytes of objects in the daemon that survive
// garbage collection: the memory its state needs, free of the
// collector's timing, which peak RSS is not. The heap profile endpoint
// forces a collection with gc=1; it is asked twice because buffers
// parked in a sync.Pool (encoding/json keeps its snapshot-sized ones
// there) only go on the second.
func (d *daemon) liveHeapMB() (float64, error) {
	var raw []byte
	for i := 0; i < 2; i++ {
		var err error
		if raw, err = d.do("GET", "/debug/pprof/heap?gc=1&debug=1", nil); err != nil {
			return 0, err
		}
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			b, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return b / (1 << 20), nil
		}
	}
	return 0, fmt.Errorf("no HeapAlloc in the daemon's heap profile")
}

// procCPUSeconds is the user+system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks are 100 Hz on every Linux Go targets).
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc/%d/stat times", pid)
	}
	return (ut + st) / 100, nil
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// --- HTTP against the daemon ---

// httpc is the one client every request shares: one load generator,
// one connection at a time.
var httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}

func (d *daemon) url(path string) string { return "http://" + d.base + path }

// do sends one request and returns the body of a 200 response.
func (d *daemon) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.url(path), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

func (d *daemon) getJSON(path string, out any) error {
	raw, err := d.do("GET", path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// status is the part of GET /v1/status the benchmark reads.
type status struct {
	Users          int     `json:"users"`
	Shards         int     `json:"shards"`
	ActiveUsers    int     `json:"active_users"`
	Satisfied      int     `json:"satisfied"`
	TotalLoad      float64 `json:"total_load"`
	MaxLoad        float64 `json:"max_load"`
	MaxHomes       int     `json:"max_homes"`
	MultiSatisfied int     `json:"multi_satisfied"`
}

// scrape reads /metrics into series → value, the series written as
// exposed (name plus label block).
func (d *daemon) scrape() (map[string]float64, error) {
	raw, err := d.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable /metrics line %q", line)
		}
		m[line[:i]] = v
	}
	return m, nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// quickSeconds is the measured phase of a -quick run.
const quickSeconds = 0.4

// runner carries one run of one workload: its settings, the metrics
// it has computed so far and the verdict of the output check.
type runner struct {
	name      string
	seed      int64
	seconds   float64
	quick     bool
	root      string
	assocdBin string
	log       io.Writer
	tr        *tracer // nil = tracing off

	// daemons is every assocd this run started; execute makes sure each
	// has been killed and waited for before it returns.
	daemons []*daemon

	outDir string // bench/out: results and traces
	tmp    string // scratch under outDir, removed when the run ends

	e2e    map[string]float64
	layer  map[string]float64
	counts map[string]int
	slices map[string][]float64

	attempted, failed int
	verified          bool
}

type workloadFunc func(ctx context.Context, r *runner) error

// workloads maps the names BENCHMARK.json lists onto their code.
var workloads = map[string]workloadFunc{
	"solve-4k":         runSolve,
	"stream-churn":     runStreamChurn,
	"durable-campus":   runDurableCampus,
	"request-campus":   runRequestCampus,
	"multihome-faults": runMultihomeFaults,
}

func (r *runner) traced() bool { return r.tr != nil }

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "bench: "+format+"\n", args...)
}

// pick returns full, or small under -quick.
func (r *runner) pick(full, small int) int {
	if r.quick {
		return small
	}
	return full
}

func (r *runner) execute(ctx context.Context, wl workloadFunc) (*result, error) {
	r.outDir = filepath.Join(r.root, "bench", "out")
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(r.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	r.tmp = tmp
	defer os.RemoveAll(tmp)

	// Every daemon is started under this context, so a signal or the
	// timeout kills them at once; and leaving execute by any path kills
	// and waits for whichever are left.
	ctx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
		for _, d := range r.daemons {
			d.kill()
		}
	}()

	root := r.tr.begin("run")
	if err := wl(ctx, r); err != nil {
		return nil, err
	}
	r.tr.end(root)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !r.verified || r.attempted < 1 {
		return nil, errNotVerified
	}
	res := &result{
		Workload: r.name, Traced: r.traced(), Stamp: newStamp(r),
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		EndToEnd: r.e2e, Slices: r.slices,
	}
	name := "result-" + r.name + ".json"
	if r.traced() {
		res.PerLayer = r.layer
		name = "result-" + r.name + "-trace.json"
		if err := r.tr.write(r.outDir, r.seed); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, name), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// assocd returns the daemon binary, building it once into the run's
// temp dir when -assocd did not name one.
func (r *runner) assocd(ctx context.Context) (string, error) {
	if r.assocdBin != "" {
		return r.assocdBin, nil
	}
	bin := filepath.Join(r.tmp, "assocd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/assocd")
	cmd.Dir = r.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/assocd: %v: %s", err, out)
	}
	r.assocdBin = bin
	return bin, nil
}

// dataDir returns a fresh journal directory under the run's temp dir.
func (r *runner) dataDir(i int) string {
	return filepath.Join(r.tmp, "data-"+strconv.Itoa(i))
}

// zero marks per-layer metrics that do not apply to this workload:
// the layer does no work on it, and the contract wants every metric
// on every workload.
func (r *runner) zero(names ...string) {
	for _, n := range names {
		r.layer[n] = 0
	}
}

// timed runs fn under a span and returns how long it took.
func (r *runner) timed(name string, fn func() error) (time.Duration, error) {
	return r.timedOps(name, 0, fn)
}

// timedOps is timed for a span that stands for ops operations.
func (r *runner) timedOps(name string, ops int, fn func() error) (time.Duration, error) {
	id := r.tr.begin(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.endN(id, ops)
	return d, err
}

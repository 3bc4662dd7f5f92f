package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wlanmcast/internal/metrics"
)

// registered returns every experiment across all three layers.
func registered() []Experiment {
	var all []Experiment
	all = append(all, All()...)
	all = append(all, Extensions()...)
	all = append(all, Dynamics()...)
	return all
}

// TestWorkersDeterminism is the runner's core guarantee: every
// registered experiment produces byte-identical CSV output whether
// the seed evaluations run sequentially (Workers=1) or fanned out
// over a pool (Workers=8), because results are collected by
// (point, seed) index instead of completion order.
func TestWorkersDeterminism(t *testing.T) {
	base := Config{Seeds: 3, SizeFactor: 0.1, ILPMaxNodes: 2000}
	for _, e := range registered() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			seq, par := base, base
			seq.Workers = 1
			par.Workers = 8
			figSeq, err := e.Run(context.Background(), seq)
			if err != nil {
				t.Fatalf("Workers=1: %v", err)
			}
			figPar, err := e.Run(context.Background(), par)
			if err != nil {
				t.Fatalf("Workers=8: %v", err)
			}
			a, b := figSeq.CSV(), figPar.CSV()
			if a != b {
				t.Errorf("Workers=1 and Workers=8 CSVs differ:\n--- sequential ---\n%s--- parallel ---\n%s", a, b)
			}
		})
	}
}

// TestProgressSerialized pins the Config.Progress contract: the
// callback is never invoked concurrently, so this unsynchronized
// append is race-free (the -race target in scripts/check.sh proves
// it) and every data point reports exactly once.
func TestProgressSerialized(t *testing.T) {
	var lines []string
	cfg := Config{
		Seeds: 4, SizeFactor: 0.1, Workers: 8,
		Progress: func(format string, args ...any) {
			lines = append(lines, format)
		},
	}
	fig, err := Fig9a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(fig.X) {
		t.Errorf("got %d progress lines, want one per point (%d)", len(lines), len(fig.X))
	}
}

// TestRunCancelledContext verifies cancellation propagates through
// the sweep: a dead context fails fast with a context error.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fig9a(ctx, Config{Seeds: 2, SizeFactor: 0.1})
	if err == nil {
		t.Fatal("cancelled context should abort the sweep")
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want a context cancellation", err)
	}
}

// TestSweepErrorMentionsSeed pins the error-context contract the old
// hand-rolled loops had: failures name the experiment, x value and
// seed, and the first error cancels the rest of the sweep.
func TestSweepErrorMentionsSeed(t *testing.T) {
	cfg := Config{Seeds: 2, Workers: 1}
	fig := &metrics.Figure{ID: "err-test", XLabel: "x"}
	fig.X = []float64{10, 20}
	_, err := runSeeds(context.Background(), cfg, fig,
		func(ctx context.Context, point, seed int) ([]Value, error) {
			if point == 1 && seed == 0 {
				return nil, errBoom
			}
			return []Value{{"v", 1}}, nil
		})
	if err == nil {
		t.Fatal("failing evaluation should fail the sweep")
	}
	for _, want := range []string{"err-test", "x=20", "seed=0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

var errBoom = errors.New("boom")

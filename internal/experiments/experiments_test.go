package experiments

import (
	"context"
	"testing"

	"wlanmcast/internal/metrics"
)

// quickCfg shrinks every experiment to smoke-test size.
func quickCfg() Config {
	return Config{Seeds: 2, SizeFactor: 0.15, ILPMaxNodes: 5000}
}

func TestAllRegistered(t *testing.T) {
	all := All()
	want := []string{"fig9a", "fig9b", "fig9c", "fig10a", "fig10b", "fig10c", "fig11", "fig12a", "fig12b", "fig12c"}
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if _, ok := Get("fig11"); !ok {
		t.Error("Get(fig11) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) should fail")
	}
}

func TestFig9aSmoke(t *testing.T) {
	fig, err := Fig9a(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := fig.Validate(); err != nil {
		t.Fatal(err)
	}
	labels := fig.Labels()
	if len(labels) != 3 {
		t.Fatalf("labels = %v, want 3 series", labels)
	}
	// The paper's claim in expectation: MLA total load <= SSA at the
	// largest user count (small tolerance for the tiny smoke config).
	last := len(fig.X) - 1
	if imp := fig.Improvement("SSA", "MLA-centralized", last); imp < -0.02 {
		t.Errorf("centralized MLA worse than SSA by %.1f%%", -imp*100)
	}
	// Total load grows with users.
	for _, s := range fig.Series {
		if s.Stats[0].Avg > s.Stats[last].Avg {
			t.Errorf("%s: total load decreased with more users", s.Label)
		}
	}
}

func TestFig10aSmoke(t *testing.T) {
	fig, err := Fig10a(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := len(fig.X) - 1
	if imp := fig.Improvement("SSA", "BLA-centralized", last); imp < -0.02 {
		t.Errorf("centralized BLA worse than SSA by %.1f%%", -imp*100)
	}
}

func TestFig11Smoke(t *testing.T) {
	fig, err := Fig11(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Satisfied users grow with the budget for every algorithm.
	for _, s := range fig.Series {
		if s.Stats[0].Avg > s.Stats[len(fig.X)-1].Avg+1e-9 {
			t.Errorf("%s: satisfied users decreased with a larger budget", s.Label)
		}
	}
	// MNU beats SSA at the tight end (in expectation; small tolerance
	// for the tiny smoke config).
	if drop := fig.Improvement("SSA", "MNU-centralized", 3); drop > 0.02 {
		t.Errorf("centralized MNU below SSA at budget %v", fig.X[3])
	}
}

func TestFig12aSmoke(t *testing.T) {
	cfg := Config{Seeds: 2, SizeFactor: 0.2, ILPMaxNodes: 20000}
	fig, err := Fig12a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The optimum lower-bounds everything at every x.
	opt := findSeries(t, fig, "MLA-optimal")
	for i := range fig.X {
		for _, s := range fig.Series {
			if s.Label == "MLA-optimal" {
				continue
			}
			if s.Stats[i].Avg < opt.Stats[i].Avg-1e-9 {
				t.Errorf("%s average beat the optimum at x=%v", s.Label, fig.X[i])
			}
		}
	}
}

func TestFig12cSmoke(t *testing.T) {
	cfg := Config{Seeds: 2, SizeFactor: 0.2, ILPMaxNodes: 20000}
	fig, err := Fig12c(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal leaves the fewest unsatisfied users.
	opt := findSeries(t, fig, "MNU-optimal")
	for i := range fig.X {
		for _, s := range fig.Series {
			if s.Label == "MNU-optimal" {
				continue
			}
			if s.Stats[i].Avg < opt.Stats[i].Avg-1e-9 {
				t.Errorf("%s left fewer unsatisfied than optimal at x=%v", s.Label, fig.X[i])
			}
		}
	}
}

func TestEveryExperimentRunsTiny(t *testing.T) {
	// Catch-all: every registered experiment (paper figures,
	// extensions, dynamics) completes at smoke scale and yields a
	// structurally valid figure.
	if testing.Short() {
		t.Skip("slow catch-all")
	}
	cfg := Config{Seeds: 1, SizeFactor: 0.1, ILPMaxNodes: 2000}
	var all []Experiment
	all = append(all, All()...)
	all = append(all, Extensions()...)
	all = append(all, Dynamics()...)
	for _, e := range all {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			fig, err := e.Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if err := fig.Validate(); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(fig.X) == 0 || len(fig.Series) == 0 {
				t.Fatalf("%s: empty figure", e.ID)
			}
		})
	}
}

// findSeries fetches a named series, failing the test when absent.
func findSeries(t *testing.T, fig *metrics.Figure, label string) *metrics.Series {
	t.Helper()
	for i := range fig.Series {
		if fig.Series[i].Label == label {
			return &fig.Series[i]
		}
	}
	t.Fatalf("series %q missing (have %v)", label, fig.Labels())
	return nil
}

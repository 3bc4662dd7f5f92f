package experiments

import (
	"context"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate results/behaviour-figs.csv")

// behaviourFigs are the tables whose rows repeat exactly per seed and
// move whenever a decision, a tie rule or a repair path changes.
var behaviourFigs = []string{"fig9a", "fig10a", "fig10b", "fig11", "ext-churn", "ext-fault", "ext-multihome"}

const behaviourGolden = "../../results/behaviour-figs.csv"

// TestBehaviourFigures is the behaviour gate: the reduced sweep of
// `experiments -seeds 4 -size 0.1 -csv` over behaviourFigs must match
// the checked-in tables byte for byte. A change that alters behaviour
// on purpose regenerates the file with
//
//	go test ./internal/experiments -run TestBehaviourFigures -update
//
// and explains every changed row.
func TestBehaviourFigures(t *testing.T) {
	byID := make(map[string]Experiment)
	for _, e := range registered() {
		byID[e.ID] = e
	}
	cfg := Config{Seeds: 4, SizeFactor: 0.1}
	var b strings.Builder
	for _, id := range behaviourFigs {
		e, ok := byID[id]
		if !ok {
			t.Fatalf("experiment %q is not registered", id)
		}
		fig, err := e.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(fig.CSV())
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(behaviourGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(behaviourGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

package scenario

import (
	"bytes"
	"math"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

func TestPaperDefaults(t *testing.T) {
	n, err := GenerateNetwork(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumAPs() != 200 || n.NumUsers() != 400 || n.NumSessions() != 5 {
		t.Errorf("sizes = %d/%d/%d, want 200/400/5", n.NumAPs(), n.NumUsers(), n.NumSessions())
	}
	if n.APs[0].Budget != 0.9 {
		t.Errorf("budget = %v, want 0.9", n.APs[0].Budget)
	}
	if math.Abs(n.Area.Area()-1.2e6) > 1e-6 {
		t.Errorf("area = %v m², want 1.2e6 (1.2 km²)", n.Area.Area())
	}
	if !n.Geometric() {
		t.Error("generated network should be geometric")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Params{Seed: 42, NumAPs: 10, NumUsers: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Params{Seed: 42, NumAPs: 10, NumUsers: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.APPositions {
		if a.APPositions[i] != b.APPositions[i] {
			t.Fatal("same seed produced different AP positions")
		}
	}
	for i := range a.UserSessions {
		if a.UserSessions[i] != b.UserSessions[i] {
			t.Fatal("same seed produced different session choices")
		}
	}
	c, err := Generate(Params{Seed: 43, NumAPs: 10, NumUsers: 20})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.APPositions {
		if a.APPositions[i] != c.APPositions[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical positions")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Params{NumAPs: -1}); err == nil {
		t.Error("negative APs should error")
	}
	if _, err := Generate(Params{SessionRate: -2}); err == nil {
		t.Error("negative session rate should error")
	}
	if _, err := Generate(Params{Budget: -0.5}); err == nil {
		t.Error("negative budget should error")
	}
}

func TestGeneratePlacements(t *testing.T) {
	for _, pl := range []Placement{Uniform, Grid, Clustered} {
		spec, err := Generate(Params{Seed: 5, NumAPs: 16, NumUsers: 50, Placement: pl})
		if err != nil {
			t.Fatalf("placement %d: %v", pl, err)
		}
		if len(spec.APPositions) != 16 || len(spec.UserPositions) != 50 {
			t.Fatalf("placement %d: wrong node counts", pl)
		}
		area := geom.Rect{Width: 1200, Height: 1000}
		for _, p := range append(append([]geom.Point{}, spec.APPositions...), spec.UserPositions...) {
			if !area.Contains(p) {
				t.Fatalf("placement %d: node %v outside area", pl, p)
			}
		}
	}
}

func TestFigure1Canonical(t *testing.T) {
	n, err := Figure1Spec(1, 1).Network()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumAPs() != 2 || n.NumUsers() != 5 {
		t.Fatal("Figure 1 sizes wrong")
	}
	if n.LinkRate(0, 1) != 6 || n.LinkRate(1, 4) != 3 {
		t.Error("Figure 1 rates wrong")
	}
	if n.Geometric() {
		t.Error("Figure 1 is an explicit-rate network")
	}
}

func TestFigure4Canonical(t *testing.T) {
	n, err := Figure4Spec().Network()
	if err != nil {
		t.Fatal(err)
	}
	// u1,u2 on a1; u3,u4 on a2.
	start := wlan.NewAssoc(4)
	start.Associate(0, 0)
	start.Associate(1, 0)
	start.Associate(2, 1)
	start.Associate(3, 1)
	if n.NumUsers() != 4 || start.SatisfiedCount() != 4 {
		t.Fatal("Figure 4 shape wrong")
	}
	if err := n.Validate(start, true); err != nil {
		t.Fatalf("Figure 4 start invalid: %v", err)
	}
	if got := n.TotalLoad(start); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Figure 4 start total load = %v, want 1/2", got)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec, err := Generate(Params{Seed: 9, NumAPs: 12, NumUsers: 30, NumSessions: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := spec.Network()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := loaded.Network()
	if err != nil {
		t.Fatal(err)
	}
	if n1.NumAPs() != n2.NumAPs() || n1.NumUsers() != n2.NumUsers() {
		t.Fatal("round trip changed sizes")
	}
	for a := 0; a < n1.NumAPs(); a++ {
		for u := 0; u < n1.NumUsers(); u++ {
			if n1.LinkRate(a, u) != n2.LinkRate(a, u) {
				t.Fatalf("round trip changed rate (%d,%d)", a, u)
			}
		}
	}
}

func TestSpecRatesKind(t *testing.T) {
	spec := &Spec{
		Kind:         KindRates,
		Rates:        [][]radio.Mbps{{6, 12}, {0, 24}},
		UserSessions: []int{0, 0},
		Sessions:     []wlan.Session{{Rate: 1}},
		Budget:       0.9,
	}
	n, err := spec.Network()
	if err != nil {
		t.Fatal(err)
	}
	if n.LinkRate(1, 1) != 24 || n.Reachable(1, 0) {
		t.Error("rates-kind network wrong")
	}
	if n.Geometric() {
		t.Error("rates-kind network must not be geometric")
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := (&Spec{Kind: "bogus"}).Network(); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := Load(bytes.NewBufferString("{nonsense")); err == nil {
		t.Error("bad JSON should error")
	}
	bad := &Spec{Kind: KindGeometric, RateSteps: nil}
	if _, err := bad.Network(); err == nil {
		t.Error("geometric spec without rate table should error")
	}
}

func TestSpecBuildTwice(t *testing.T) {
	// Building two networks from one spec must not alias state.
	spec, err := Generate(Params{Seed: 2, NumAPs: 5, NumUsers: 10})
	if err != nil {
		t.Fatal(err)
	}
	n1, err := spec.Network()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := spec.Network()
	if err != nil {
		t.Fatal(err)
	}
	n1.Sessions[0].Name = "mutated"
	if n2.Sessions[0].Name == "mutated" {
		t.Error("networks share session storage")
	}
}

func TestBasicRateOnlyPropagates(t *testing.T) {
	spec, err := Generate(Params{Seed: 3, NumAPs: 5, NumUsers: 10, BasicRateOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := spec.Network()
	if err != nil {
		t.Fatal(err)
	}
	if !n.BasicRateOnly {
		t.Error("BasicRateOnly not propagated")
	}
}

package radio

import (
	"math/rand"
	"testing"

	"wlanmcast/internal/geom"
)

// numChannels80211a is the number of non-overlapping 802.11a channels
// available in US/Canada, as cited by the paper.
const numChannels80211a = 12

func TestAssignChannelsSmall(t *testing.T) {
	// Three APs in a line, 100m apart, 150m interference range:
	// 0-1 and 1-2 interfere, 0-2 do not. Two channels suffice.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}
	a, err := AssignChannels(pts, 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Conflicts) != 0 {
		t.Fatalf("expected interference-free assignment, got conflicts %v", a.Conflicts)
	}
	if a.Channels[0] == a.Channels[1] || a.Channels[1] == a.Channels[2] {
		t.Errorf("adjacent APs share a channel: %v", a.Channels)
	}
}

func TestAssignChannelsSingleAP(t *testing.T) {
	a, err := AssignChannels([]geom.Point{{X: 5, Y: 5}}, 200, numChannels80211a)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Channels) != 1 || a.Channels[0] != 1 {
		t.Errorf("Channels = %v, want [1]", a.Channels)
	}
}

func TestAssignChannelsEmpty(t *testing.T) {
	a, err := AssignChannels(nil, 200, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Channels) != 0 || len(a.Conflicts) != 0 {
		t.Error("empty input should produce empty, conflict-free assignment")
	}
}

func TestAssignChannelsErrors(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}}
	if _, err := AssignChannels(pts, 100, 0); err == nil {
		t.Error("zero channels should error")
	}
	if _, err := AssignChannels(pts, -5, 3); err == nil {
		t.Error("negative range should error")
	}
}

func TestAssignChannelsCliqueOverflow(t *testing.T) {
	// Four mutually interfering APs but only 3 channels: exactly one
	// conflict pair is unavoidable; the assigner must still terminate
	// and report it.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	a, err := AssignChannels(pts, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Conflicts) == 0 {
		t.Error("K4 with 3 channels cannot be interference-free")
	}
	if len(a.Conflicts) != 1 {
		t.Errorf("got %d conflicts, want exactly 1 (one reused channel pair)", len(a.Conflicts))
	}
	for _, c := range a.Channels {
		if c < 1 || c > 3 {
			t.Errorf("channel %d outside [1,3]", c)
		}
	}
}

func TestAssignChannelsPaperScale(t *testing.T) {
	// The paper's dense deployment: 200 APs in 1.2 km^2. At full radio
	// range the interference graph is denser than 12 colors allow, so
	// we require the assigner to keep residual conflicts to a small
	// fraction of interfering pairs and stay within the channel budget.
	rng := rand.New(rand.NewSource(2007))
	pts := geom.UniformPoints(rng, 200, geom.Rect{Width: 1200, Height: 1000})
	a, err := AssignChannels(pts, 200, numChannels80211a)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= 200 {
				edges++
			}
		}
	}
	if frac := float64(len(a.Conflicts)) / float64(edges); frac > 0.02 {
		t.Errorf("conflict fraction %.3f (%d/%d) exceeds 2%%", frac, len(a.Conflicts), edges)
	}
	for _, c := range a.Channels {
		if c < 1 || c > numChannels80211a {
			t.Errorf("channel %d outside [1,%d]", c, numChannels80211a)
		}
	}
	// With the real co-channel interference distance (typically well
	// below decode range) 12 channels do suffice.
	a2, err := AssignChannels(pts, 120, numChannels80211a)
	if err != nil {
		t.Fatal(err)
	}
	if len(a2.Conflicts) != 0 {
		t.Errorf("expected conflict-free coloring at 120m interference range, got %d conflicts", len(a2.Conflicts))
	}
}

func TestAssignChannelsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := geom.UniformPoints(rng, 40, geom.Square(500))
	a1, err := AssignChannels(pts, 150, 6)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AssignChannels(pts, 150, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Channels {
		if a1.Channels[i] != a2.Channels[i] {
			t.Fatal("channel assignment is nondeterministic")
		}
	}
}

func TestAssignChannelsValidityRandom(t *testing.T) {
	// Property: with enough channels (max degree + 1 always suffices
	// for greedy coloring), the assignment is interference-free.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		pts := geom.UniformPoints(rng, n, geom.Square(500))
		a, err := AssignChannels(pts, 150, n) // n channels >= maxdeg+1
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Conflicts) != 0 {
			t.Fatalf("trial %d: conflicts with %d channels for %d APs", trial, n, n)
		}
	}
}

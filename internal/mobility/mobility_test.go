package mobility

import (
	"math/rand"
	"testing"
	"time"

	"wlanmcast/internal/geom"
)

func defaultCfg() Config {
	return Config{Area: geom.Square(500)}
}

func TestWalkersStayInArea(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	walkers, err := NewWalkers(rng, 20, defaultCfg(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	area := geom.Square(500)
	for _, w := range walkers {
		for tick := time.Duration(0); tick <= time.Hour; tick += 31 * time.Second {
			if p := w.PositionAt(tick); !area.Contains(p) {
				t.Fatalf("walker left area: %v at %v", p, tick)
			}
		}
	}
}

func TestSpeedBounds(t *testing.T) {
	// Property: between any two nearby samples, displacement obeys the
	// max speed.
	rng := rand.New(rand.NewSource(2))
	cfg := Config{Area: geom.Square(500), MinSpeed: 0.5, MaxSpeed: 1.5,
		MinPause: 10 * time.Second, MaxPause: 30 * time.Second}
	walkers, err := NewWalkers(rng, 10, cfg, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	const step = time.Second
	for _, w := range walkers {
		prev := w.PositionAt(0)
		for tick := step; tick <= 30*time.Minute; tick += step {
			cur := w.PositionAt(tick)
			if d := prev.Dist(cur); d > 1.5*step.Seconds()+1e-9 {
				t.Fatalf("walker moved %vm in %v (max speed 1.5 m/s)", d, step)
			}
			prev = cur
		}
	}
}

func TestQuasiStaticMostlyPaused(t *testing.T) {
	// With long pauses and short walks, walkers should be stationary
	// the vast majority of the time — the paper's assumption.
	rng := rand.New(rand.NewSource(3))
	walkers, err := NewWalkers(rng, 30, defaultCfg(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	moving, total := 0, 0
	for _, w := range walkers {
		for tick := time.Duration(0); tick < time.Hour; tick += 13 * time.Second {
			total++
			if inMotion(w, tick) {
				moving++
			}
		}
	}
	if frac := float64(moving) / float64(total); frac > 0.35 {
		t.Errorf("walkers moving %.0f%% of the time; not quasi-static", frac*100)
	}
}

func TestPositionsEventuallyChange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	walkers, err := NewWalkers(rng, 10, defaultCfg(), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, w := range walkers {
		if w.PositionAt(0).Dist(w.PositionAt(2*time.Hour)) > 1 {
			changed++
		}
	}
	if changed < 5 {
		t.Errorf("only %d/10 walkers moved over two hours", changed)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := NewWalkers(rand.New(rand.NewSource(7)), 5, defaultCfg(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWalkers(rand.New(rand.NewSource(7)), 5, defaultCfg(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for tick := time.Duration(0); tick <= time.Hour; tick += 7 * time.Minute {
			if a[i].PositionAt(tick) != b[i].PositionAt(tick) {
				t.Fatal("same seed produced different trajectories")
			}
		}
	}
}

func TestSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	walkers, err := NewWalkers(rng, 7, defaultCfg(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pts := Sample(walkers, 30*time.Second)
	if len(pts) != 7 {
		t.Fatalf("got %d samples, want 7", len(pts))
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewWalkers(rng, 1, Config{}, time.Hour); err == nil {
		t.Error("empty area should error")
	}
	bad := defaultCfg()
	bad.MinSpeed, bad.MaxSpeed = 2, 1
	if _, err := NewWalkers(rng, 1, bad, time.Hour); err == nil {
		t.Error("inverted speed range should error")
	}
	bad2 := defaultCfg()
	bad2.MinPause, bad2.MaxPause = time.Minute, time.Second
	if _, err := NewWalkers(rng, 1, bad2, time.Hour); err == nil {
		t.Error("inverted pause range should error")
	}
	if _, err := NewWalkers(rng, -1, defaultCfg(), time.Hour); err == nil {
		t.Error("negative count should error")
	}
}

func TestEmptyWalker(t *testing.T) {
	var w Walker
	if w.PositionAt(time.Second) != (geom.Point{}) {
		t.Error("empty walker should sit at origin")
	}
	if inMotion(&w, 0) {
		t.Error("empty walker cannot move")
	}
}

// inMotion reports whether w is mid-walk at time t.
func inMotion(w *Walker, t time.Duration) bool {
	for _, s := range w.segs {
		if t >= s.depart && t < s.arrive {
			return true
		}
	}
	return false
}

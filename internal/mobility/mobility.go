// Package mobility implements the random-waypoint-with-pauses model
// behind the paper's quasi-static user assumption (§3.1, citing the
// Balachandran and Kotz measurement studies): users stay put for long
// pauses, then walk to a new spot. The model produces deterministic
// piecewise-linear trajectories so association dynamics under churn
// can be studied reproducibly (the ext-mobility experiment).
package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"wlanmcast/internal/geom"
)

// Config parameterizes the random-waypoint model.
type Config struct {
	// Area bounds the walk.
	Area geom.Rect
	// MinSpeed and MaxSpeed bound the walking speed in m/s
	// (defaults 0.5 and 1.5 — pedestrians).
	MinSpeed, MaxSpeed float64
	// MinPause and MaxPause bound the dwell time at each waypoint
	// (defaults 5min and 30min — the quasi-static regime the WLAN
	// measurement studies report, where dwell dominates walking).
	MinPause, MaxPause time.Duration
}

func (c *Config) normalize() error {
	if c.Area.Width <= 0 || c.Area.Height <= 0 {
		return fmt.Errorf("mobility: empty area")
	}
	if c.MinSpeed == 0 && c.MaxSpeed == 0 {
		c.MinSpeed, c.MaxSpeed = 0.5, 1.5
	}
	if c.MinPause == 0 && c.MaxPause == 0 {
		c.MinPause, c.MaxPause = 5*time.Minute, 30*time.Minute
	}
	if c.MinSpeed <= 0 || c.MaxSpeed < c.MinSpeed {
		return fmt.Errorf("mobility: bad speed range [%v, %v]", c.MinSpeed, c.MaxSpeed)
	}
	if c.MinPause < 0 || c.MaxPause < c.MinPause {
		return fmt.Errorf("mobility: bad pause range [%v, %v]", c.MinPause, c.MaxPause)
	}
	return nil
}

// segment is one leg of a trajectory: pause at From until Depart,
// then walk to To, arriving at Arrive.
type segment struct {
	from, to       geom.Point
	depart, arrive time.Duration
}

// Walker is one user's precomputed trajectory over a horizon.
type Walker struct {
	segs []segment
}

// PositionAt returns the walker's position at time t. Before the
// first segment it sits at its start; after the horizon it sits at
// the last waypoint.
func (w *Walker) PositionAt(t time.Duration) geom.Point {
	for _, s := range w.segs {
		if t < s.depart {
			return s.from
		}
		if t < s.arrive {
			frac := float64(t-s.depart) / float64(s.arrive-s.depart)
			return geom.Point{
				X: s.from.X + (s.to.X-s.from.X)*frac,
				Y: s.from.Y + (s.to.Y-s.from.Y)*frac,
			}
		}
	}
	if len(w.segs) == 0 {
		return geom.Point{}
	}
	return w.segs[len(w.segs)-1].to
}

// NewWalkers precomputes n trajectories covering [0, horizon].
func NewWalkers(rng *rand.Rand, n int, cfg Config, horizon time.Duration) ([]*Walker, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if n < 0 || horizon < 0 {
		return nil, fmt.Errorf("mobility: negative count or horizon")
	}
	walkers := make([]*Walker, n)
	for i := range walkers {
		w := &Walker{}
		pos := geom.Point{X: rng.Float64() * cfg.Area.Width, Y: rng.Float64() * cfg.Area.Height}
		now := time.Duration(0)
		for now <= horizon {
			pause := cfg.MinPause + time.Duration(rng.Int63n(int64(cfg.MaxPause-cfg.MinPause)+1))
			dest := geom.Point{X: rng.Float64() * cfg.Area.Width, Y: rng.Float64() * cfg.Area.Height}
			speed := cfg.MinSpeed + rng.Float64()*(cfg.MaxSpeed-cfg.MinSpeed)
			walk := time.Duration(pos.Dist(dest) / speed * float64(time.Second))
			seg := segment{
				from:   pos,
				to:     dest,
				depart: now + pause,
				arrive: now + pause + walk,
			}
			w.segs = append(w.segs, seg)
			pos = dest
			now = seg.arrive
		}
		walkers[i] = w
	}
	return walkers, nil
}

// Sample returns every walker's position at time t.
func Sample(walkers []*Walker, t time.Duration) []geom.Point {
	pts := make([]geom.Point, len(walkers))
	for i, w := range walkers {
		pts[i] = w.PositionAt(t)
	}
	return pts
}

package main

import (
	"math"
	"math/rand"

	"wlanmcast/internal/engine"
	"wlanmcast/internal/fault"
	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/scenario"
	"wlanmcast/internal/wlan"
)

// paperArea is a rectangle holding aps access points at the paper's
// density (200 APs on 1200 m x 1000 m), with the same aspect ratio.
func paperArea(aps int) geom.Rect {
	def := scenario.PaperDefaults()
	k := math.Sqrt(float64(aps) / float64(def.NumAPs))
	return geom.Rect{Width: def.Area.Width * k, Height: def.Area.Height * k}
}

// paperSpec is a uniform random scenario at the paper's density.
func paperSpec(seed int64, aps, users int) (*scenario.Spec, error) {
	return scenario.Generate(scenario.Params{
		Area: paperArea(aps), NumAPs: aps, NumUsers: users, Seed: seed,
	})
}

// campus is the zoned layout of the engine's shard benchmarks: dense
// square zones on a grid with 2 km of dead space between them, so the
// spatial partition finds one independent region per zone.
type campus struct {
	zones, cols, apsPerZone, usersPerZone int
	side                                  float64 // zone edge, metres
}

const (
	campusGap      = 2000.0 // dead space between zones, metres
	campusSessions = 4
)

func (c campus) pitch() float64 { return c.side + campusGap }

func (c campus) point(rng *rand.Rand, z int) geom.Point {
	return geom.Point{
		X: float64(z%c.cols)*c.pitch() + 100 + rng.Float64()*c.side,
		Y: float64(z/c.cols)*c.pitch() + 100 + rng.Float64()*c.side,
	}
}

func (c campus) users() int { return c.zones * c.usersPerZone }

func (c campus) spec(rng *rand.Rand) *scenario.Spec {
	rows := (c.zones + c.cols - 1) / c.cols
	s := &scenario.Spec{
		Kind:      scenario.KindGeometric,
		Area:      geom.Rect{Width: float64(c.cols) * c.pitch(), Height: float64(rows) * c.pitch()},
		Budget:    wlan.DefaultBudget,
		RateSteps: radio.Table1().Steps(),
	}
	for i := 0; i < campusSessions; i++ {
		s.Sessions = append(s.Sessions, wlan.Session{ID: i, Rate: radio.Mbps(2 * (i + 1))})
	}
	for z := 0; z < c.zones; z++ {
		for i := 0; i < c.apsPerZone; i++ {
			s.APPositions = append(s.APPositions, c.point(rng, z))
		}
	}
	for u := 0; u < c.users(); u++ {
		s.UserPositions = append(s.UserPositions, c.point(rng, u%c.zones))
		s.UserSessions = append(s.UserSessions, rng.Intn(campusSessions))
	}
	return s
}

// trace is n events, 80% moves to a random zone and 20% demand
// changes; every user stays active, so any prefix is valid.
func (c campus) trace(rng *rand.Rand, n int) []engine.Event {
	events := make([]engine.Event, n)
	for i := range events {
		u := rng.Intn(c.users())
		if rng.Float64() < 0.8 {
			events[i] = engine.Event{Kind: engine.UserMove, User: u, Pos: c.point(rng, rng.Intn(c.zones))}
		} else {
			events[i] = engine.Event{Kind: engine.DemandChange, User: u, Session: rng.Intn(campusSessions)}
		}
	}
	return events
}

// churnTrace is the engine's Poisson join/leave/move/demand churn over
// the spec's area, optionally merged with an AP down/up schedule whose
// mean up-time is mtbfHorizons trace lengths (0 = no faults).
func churnTrace(seed int64, spec *scenario.Spec, active, n int, mtbfHorizons float64) ([]engine.Event, error) {
	events, err := engine.GenTrace(engine.TraceParams{
		Seed: seed, Events: n, Area: spec.Area,
		Users: len(spec.UserPositions), InitialActive: active, Sessions: len(spec.Sessions),
	})
	if err != nil || mtbfHorizons == 0 || n == 0 {
		return events, err
	}
	horizon := events[n-1].At + 1e-9
	sched, err := fault.Gen(fault.Params{
		Seed: seed + 1, APs: len(spec.APPositions), Horizon: horizon,
		MTBF: mtbfHorizons * horizon, MTTR: horizon / 10,
	})
	if err != nil {
		return nil, err
	}
	return engine.MergeFaults(events, sched), nil
}

func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

package wlan

import (
	"math"
	"math/rand"
	"testing"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
)

// Scale benchmark: dense vs sparse construction at 1k/10k/100k users
// (go test -bench NewGeometric -benchtime 1x -benchmem). The
// benchmark's wlan.build_s and wlan.build_alloc_mb metrics track the
// sparse build alone; this pair is the dense comparison, whose
// acceptance bar is a >= 10x construction speedup and >= 10x fewer
// allocated bytes at 100k users. AP density is held at the paper's §7 setting (one AP per
// 6000 m², 200 APs on 1.2 km²), so per-user candidate counts stay
// constant and the dense baseline's O(APs x users) cost is the only
// thing that grows superlinearly.

// benchInputs builds a seeded scenario with nUsers users, nUsers/50
// APs, and an area scaled to constant AP density (1.2:1 aspect).
func benchInputs(nUsers int) (geom.Rect, []geom.Point, []geom.Point, []int, []Session) {
	nAPs := nUsers / 50
	if nAPs < 4 {
		nAPs = 4
	}
	h := math.Sqrt(float64(nAPs) * 6000.0 / 1.2)
	area := geom.Rect{Width: 1.2 * h, Height: h}
	rng := rand.New(rand.NewSource(7))
	apPos := geom.UniformPoints(rng, nAPs, area)
	userPos := geom.UniformPoints(rng, nUsers, area)
	sessions := make([]Session, 5)
	for s := range sessions {
		sessions[s] = Session{Rate: 1}
	}
	userSession := make([]int, nUsers)
	for u := range userSession {
		userSession[u] = rng.Intn(len(sessions))
	}
	return area, apPos, userPos, userSession, sessions
}

// benchLinks keeps the built network observable so the compiler cannot
// elide construction.
var benchLinks int

func benchConstruct(b *testing.B, nUsers int, dense bool) {
	area, apPos, userPos, userSession, sessions := benchInputs(nUsers)
	table := radio.Table1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var (
			n   *Network
			err error
		)
		if dense {
			n, err = NewGeometricDense(area, apPos, userPos, userSession, sessions, table, DefaultBudget)
		} else {
			n, err = NewGeometric(area, apPos, userPos, userSession, sessions, table, DefaultBudget)
		}
		if err != nil {
			b.Fatal(err)
		}
		benchLinks = n.NumLinks()
	}
}

func BenchmarkNewGeometricDense1k(b *testing.B)    { benchConstruct(b, 1_000, true) }
func BenchmarkNewGeometricSparse1k(b *testing.B)   { benchConstruct(b, 1_000, false) }
func BenchmarkNewGeometricDense10k(b *testing.B)   { benchConstruct(b, 10_000, true) }
func BenchmarkNewGeometricSparse10k(b *testing.B)  { benchConstruct(b, 10_000, false) }
func BenchmarkNewGeometricDense100k(b *testing.B)  { benchConstruct(b, 100_000, true) }
func BenchmarkNewGeometricSparse100k(b *testing.B) { benchConstruct(b, 100_000, false) }

// Package scenario generates the workloads of the paper's evaluation
// (§7): random WLANs over a deployment area with the 802.11a rate
// table, plus the worked examples of Figures 1 and 4 as canonical
// fixtures, and JSON (de)serialization of complete scenarios.
package scenario

import (
	"fmt"
	"math/rand"

	"wlanmcast/internal/geom"
	"wlanmcast/internal/radio"
	"wlanmcast/internal/wlan"
)

// Placement selects how nodes are scattered over the area.
type Placement int

// Placement kinds. Values start at 1 so the zero value (unset) maps to
// the paper's uniform placement via defaults.
const (
	// Uniform places nodes independently and uniformly (the paper's
	// "randomly located" setting).
	Uniform Placement = iota + 1
	// Grid places APs on a regular grid (a planned deployment);
	// users stay uniform.
	Grid
	// Clustered gathers users in Gaussian hotspots; APs stay uniform.
	Clustered
)

// Params describes one random scenario. The zero value of each field
// selects the paper's §7 default.
type Params struct {
	// Area is the deployment area (default 1.2 km²: 1200 m x 1000 m).
	Area geom.Rect
	// NumAPs is the AP count (default 200).
	NumAPs int
	// NumUsers is the user count (default 400).
	NumUsers int
	// NumSessions is the multicast session count (default 5); each
	// user picks one uniformly at random.
	NumSessions int
	// SessionRate is the stream bitrate in Mbps (default 1; the paper
	// does not state its value — see DESIGN.md).
	SessionRate radio.Mbps
	// Budget is the per-AP multicast load limit (default 0.9).
	Budget float64
	// Seed drives all placement and session choices.
	Seed int64
	// Placement selects the node layout (default Uniform).
	Placement Placement
	// BasicRateOnly restricts multicast to the basic rate.
	BasicRateOnly bool
	// RateTable overrides the PHY table (default radio.Table1).
	RateTable *radio.RateTable
}

// PaperDefaults are the §7 simulation settings.
func PaperDefaults() Params {
	return Params{
		Area:        geom.Rect{Width: 1200, Height: 1000},
		NumAPs:      200,
		NumUsers:    400,
		NumSessions: 5,
		SessionRate: 1,
		Budget:      wlan.DefaultBudget,
		Placement:   Uniform,
	}
}

// normalize fills zero fields with paper defaults and validates.
func (p *Params) normalize() error {
	def := PaperDefaults()
	if p.Area.Width <= 0 || p.Area.Height <= 0 {
		p.Area = def.Area
	}
	if p.NumAPs == 0 {
		p.NumAPs = def.NumAPs
	}
	if p.NumUsers == 0 {
		p.NumUsers = def.NumUsers
	}
	if p.NumSessions == 0 {
		p.NumSessions = def.NumSessions
	}
	if p.SessionRate == 0 {
		p.SessionRate = def.SessionRate
	}
	if p.Budget == 0 {
		p.Budget = def.Budget
	}
	if p.Placement == 0 {
		p.Placement = Uniform
	}
	if p.RateTable == nil {
		p.RateTable = radio.Table1()
	}
	if p.NumAPs < 0 || p.NumUsers < 0 || p.NumSessions < 1 {
		return fmt.Errorf("scenario: invalid sizes: %d APs, %d users, %d sessions", p.NumAPs, p.NumUsers, p.NumSessions)
	}
	if p.SessionRate < 0 || p.Budget < 0 {
		return fmt.Errorf("scenario: negative rate (%v) or budget (%v)", p.SessionRate, p.Budget)
	}
	return nil
}

// Generate builds a random scenario spec from params.
func Generate(p Params) (*Spec, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var apPos []geom.Point
	switch p.Placement {
	case Grid:
		apPos = geom.GridPoints(p.NumAPs, p.Area)
	default:
		apPos = geom.UniformPoints(rng, p.NumAPs, p.Area)
	}
	var userPos []geom.Point
	if p.Placement == Clustered {
		nClusters := p.NumUsers/40 + 1
		userPos = geom.ClusteredPoints(rng, p.NumUsers, nClusters, 60, p.Area)
	} else {
		userPos = geom.UniformPoints(rng, p.NumUsers, p.Area)
	}
	sessions := make([]wlan.Session, p.NumSessions)
	for s := range sessions {
		sessions[s] = wlan.Session{Rate: p.SessionRate, Name: fmt.Sprintf("s%d", s+1)}
	}
	userSession := make([]int, p.NumUsers)
	for u := range userSession {
		userSession[u] = rng.Intn(p.NumSessions)
	}
	return &Spec{
		Kind:          KindGeometric,
		Area:          p.Area,
		APPositions:   apPos,
		UserPositions: userPos,
		UserSessions:  userSession,
		Sessions:      sessions,
		Budget:        p.Budget,
		RateSteps:     p.RateTable.Steps(),
		BasicRateOnly: p.BasicRateOnly,
	}, nil
}

// GenerateNetwork is Generate followed by Spec.Network.
func GenerateNetwork(p Params) (*wlan.Network, error) {
	spec, err := Generate(p)
	if err != nil {
		return nil, err
	}
	return spec.Network()
}

// Figure1Spec is the paper's Figure 1 example with the given session
// rates (3 Mbps in the MNU discussion, 1 Mbps for BLA/MLA). Rates rows
// are a1 and a2, columns u1..u5.
func Figure1Spec(s1Rate, s2Rate radio.Mbps) *Spec {
	return &Spec{
		Kind:         KindRates,
		Rates:        [][]radio.Mbps{{3, 6, 4, 4, 4}, {0, 0, 5, 5, 3}},
		UserSessions: []int{0, 1, 0, 1, 1},
		Sessions:     []wlan.Session{{Rate: s1Rate, Name: "s1"}, {Rate: s2Rate, Name: "s2"}},
		Budget:       1,
	}
}

// Figure4Spec is the paper's Figure 4 non-convergence example.
func Figure4Spec() *Spec {
	return &Spec{
		Kind:         KindRates,
		Rates:        [][]radio.Mbps{{5, 4, 4, 0}, {0, 4, 4, 5}},
		UserSessions: []int{0, 0, 0, 0},
		Sessions:     []wlan.Session{{Rate: 1, Name: "s1"}},
		Budget:       1,
	}
}

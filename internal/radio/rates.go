// Package radio models the 802.11a physical layer as used by the paper:
// the discrete transmission-rate set with the distance thresholds of
// Manshaei & Turletti (Table 1 in the paper), discrete transmit power
// levels for the adaptive-power-control extension (paper §8), and
// channel assignment over the AP interference graph supporting the
// paper's non-interfering-neighbors assumption.
package radio

import (
	"fmt"
	"sort"
)

// Mbps is a data rate in megabits per second.
type Mbps float64

// RateStep is one (rate, max distance) row of the paper's Table 1: the
// rate is usable whenever the link distance is at most Threshold meters.
type RateStep struct {
	Rate      Mbps    `json:"rate"`
	Threshold float64 `json:"threshold"` // meters
}

// RateTable maps link distance to the maximum usable PHY rate. Steps are
// kept sorted by descending rate (ascending threshold).
type RateTable struct {
	steps []RateStep
}

// Table1 returns the 802.11a rate-vs-distance table the paper takes from
// Manshaei & Turletti ("Simulation-Based Performance Analysis of 802.11a
// Wireless LAN", IST 2003):
//
//	Rate (Mbps)       6   12   18  24  36  48  54
//	Threshold (m)   200  145  105  85  60  40  35
func Table1() *RateTable {
	t, err := NewRateTable([]RateStep{
		{Rate: 6, Threshold: 200},
		{Rate: 12, Threshold: 145},
		{Rate: 18, Threshold: 105},
		{Rate: 24, Threshold: 85},
		{Rate: 36, Threshold: 60},
		{Rate: 48, Threshold: 40},
		{Rate: 54, Threshold: 35},
	})
	if err != nil {
		// The literal above is valid by construction.
		panic(err)
	}
	return t
}

// NewRateTable builds a RateTable from arbitrary steps. It returns an
// error if the steps are empty, contain non-positive rates or
// thresholds, or are not consistent (a higher rate must have a smaller
// or equal threshold — faster modulations need better signal).
func NewRateTable(steps []RateStep) (*RateTable, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("radio: rate table needs at least one step")
	}
	s := make([]RateStep, len(steps))
	copy(s, steps)
	sort.Slice(s, func(i, j int) bool { return s[i].Rate > s[j].Rate })
	for i, st := range s {
		if st.Rate <= 0 {
			return nil, fmt.Errorf("radio: non-positive rate %v", st.Rate)
		}
		if st.Threshold <= 0 {
			return nil, fmt.Errorf("radio: non-positive threshold %v for rate %v", st.Threshold, st.Rate)
		}
		if i > 0 {
			if s[i-1].Rate == st.Rate {
				return nil, fmt.Errorf("radio: duplicate rate %v", st.Rate)
			}
			if s[i-1].Threshold > st.Threshold {
				return nil, fmt.Errorf("radio: rate %v (threshold %vm) reaches farther than slower rate %v (threshold %vm)",
					s[i-1].Rate, s[i-1].Threshold, st.Rate, st.Threshold)
			}
		}
	}
	return &RateTable{steps: s}, nil
}

// RateFor returns the maximum PHY rate usable at the given link distance
// in meters, and false if the distance exceeds radio range entirely.
func (t *RateTable) RateFor(distance float64) (Mbps, bool) {
	// steps are sorted by descending rate / ascending threshold, so the
	// first step whose threshold covers the distance is the best rate.
	for _, st := range t.steps {
		if distance <= st.Threshold {
			return st.Rate, true
		}
	}
	return 0, false
}

// Range returns the maximum distance in meters at which any
// communication is possible (the threshold of the slowest rate).
func (t *RateTable) Range() float64 {
	return t.steps[len(t.steps)-1].Threshold
}

// BasicRate returns the lowest (basic) rate of the table. The 802.11
// standard transmits broadcast/multicast frames at this rate; the
// paper's basic-rate-only mode restricts all multicast to it.
func (t *RateTable) BasicRate() Mbps {
	return t.steps[len(t.steps)-1].Rate
}

// Rates returns all rates in descending order. The slice is a copy.
func (t *RateTable) Rates() []Mbps {
	out := make([]Mbps, len(t.steps))
	for i, st := range t.steps {
		out[i] = st.Rate
	}
	return out
}

// Steps returns a copy of the (rate, threshold) rows sorted by
// descending rate.
func (t *RateTable) Steps() []RateStep {
	out := make([]RateStep, len(t.steps))
	copy(out, t.steps)
	return out
}

// Scaled returns a new table with every distance threshold multiplied by
// factor. The adaptive-power-control extension uses this: transmitting
// at lower power shrinks every rate's reach by the same geometric
// factor under log-distance path loss.
func (t *RateTable) Scaled(factor float64) (*RateTable, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("radio: non-positive scale factor %v", factor)
	}
	steps := make([]RateStep, len(t.steps))
	for i, st := range t.steps {
		steps[i] = RateStep{Rate: st.Rate, Threshold: st.Threshold * factor}
	}
	return NewRateTable(steps)
}

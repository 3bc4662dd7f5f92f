// Package metrics aggregates per-scenario measurements into the
// avg/min/max-over-seeds series the paper's figures plot (§7 reports
// "the average, min and max values for 40 random scenarios"), and
// formats them as text tables or CSV.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Stat summarizes one sample set.
type Stat struct {
	Avg    float64
	Min    float64
	Max    float64
	StdDev float64
	N      int
}

// Collect computes summary statistics over vals. An empty input yields
// the zero Stat.
func Collect(vals []float64) Stat {
	if len(vals) == 0 {
		return Stat{}
	}
	s := Stat{Min: math.Inf(1), Max: math.Inf(-1), N: len(vals)}
	sum := 0.0
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Avg = sum / float64(len(vals))
	if len(vals) > 1 {
		ss := 0.0
		for _, v := range vals {
			d := v - s.Avg
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(vals)-1))
	}
	return s
}

// Series is one plotted line: a label (algorithm name) and a Stat per
// x value.
type Series struct {
	Label string
	Stats []Stat
}

// Figure is one reproduced figure: shared x values and one series per
// algorithm.
type Figure struct {
	// ID is the experiment identifier ("fig9a").
	ID string
	// Title is the figure caption.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// X holds the x-axis values shared by all series.
	X []float64
	// Series holds one line per algorithm.
	Series []Series
}

// AddPoint appends a Stat to the named series, creating it on first
// use. Points must be added in x order, aligned with Figure.X.
func (f *Figure) AddPoint(label string, s Stat) {
	for i := range f.Series {
		if f.Series[i].Label == label {
			f.Series[i].Stats = append(f.Series[i].Stats, s)
			return
		}
	}
	f.Series = append(f.Series, Series{Label: label, Stats: []Stat{s}})
}

// Validate checks that every series has one Stat per x value.
func (f *Figure) Validate() error {
	for _, s := range f.Series {
		if len(s.Stats) != len(f.X) {
			return fmt.Errorf("metrics: series %q has %d points for %d x values", s.Label, len(s.Stats), len(f.X))
		}
	}
	return nil
}

// Table renders the figure as an aligned text table of averages with
// ±stddev spreads and [min, max] ranges — the same information the
// paper's error-bar plots carry.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " | %-36s", s.Label)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 12+len(f.Series)*39))
	b.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range f.Series {
			if i < len(s.Stats) {
				st := s.Stats[i]
				fmt.Fprintf(&b, " | %8.4f ±%-7.4f [%7.4f,%8.4f]", st.Avg, st.StdDev, st.Min, st.Max)
			} else {
				fmt.Fprintf(&b, " | %-36s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with
// avg/min/max/stddev columns per series.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		for _, suffix := range []string{"avg", "min", "max", "stddev"} {
			fmt.Fprintf(&b, ",%s", csvEscape(s.Label+"_"+suffix))
		}
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			if i < len(s.Stats) {
				st := s.Stats[i]
				fmt.Fprintf(&b, ",%g,%g,%g,%g", st.Avg, st.Min, st.Max, st.StdDev)
			} else {
				b.WriteString(",,,,")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Improvement returns the relative improvement of series b over series
// a at the given x index: (a - b) / a (positive when b is lower —
// "reduced by X%"). It returns 0 when a's average is 0.
func (f *Figure) Improvement(a, b string, i int) float64 {
	sa, sb := f.findSeries(a), f.findSeries(b)
	if sa == nil || sb == nil || i >= len(sa.Stats) || i >= len(sb.Stats) {
		return 0
	}
	if sa.Stats[i].Avg == 0 {
		return 0
	}
	return (sa.Stats[i].Avg - sb.Stats[i].Avg) / sa.Stats[i].Avg
}

func (f *Figure) findSeries(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

// Labels returns the series labels in order.
func (f *Figure) Labels() []string {
	out := make([]string, len(f.Series))
	for i, s := range f.Series {
		out[i] = s.Label
	}
	return out
}

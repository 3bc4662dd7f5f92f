package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readResults loads a JSONL file of results (what -out appends) into
// workload → metric → values, end-to-end and per-layer apart.
func readResults(path string) (e2e, layer map[string]map[string][]float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	e2e, layer = map[string]map[string][]float64{}, map[string]map[string][]float64{}
	add := func(dst map[string]map[string][]float64, wl string, vals map[string]float64) {
		if dst[wl] == nil {
			dst[wl] = map[string][]float64{}
		}
		for k, v := range vals {
			dst[wl][k] = append(dst[wl][k], v)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if !res.Correct {
			return nil, nil, fmt.Errorf("%s: a %s run failed its output check (%d of %d operations)", path, res.Workload, res.Failed, res.Attempted)
		}
		// A traced run's end-to-end numbers carry the tracing; only
		// untraced runs are compared against bounds.
		if res.Traced {
			add(layer, res.Workload, res.PerLayer)
		} else {
			add(e2e, res.Workload, res.EndToEnd)
		}
	}
	return e2e, layer, sc.Err()
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// verdict compares set b against set a for one metric: how much worse
// b's median is as a share of a's (negative = better), and the row's
// label under the benchmark's rule — a difference inside the bound is
// "within bound"; one beyond it is "worse" or "better", unless either
// set's own spread exceeds the bound, in which case it is
// "unresolved" (except when every b run beats every a run).
func verdict(m metricSpec, a, b []float64) (worse float64, label string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return 0, "within bound"
		}
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	lower := m.Better == "lower"
	if !lower {
		worse = -worse
	}
	if max(spread(a), spread(b)) > m.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (lower && y >= x) || (!lower && y <= x) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return worse, "better"
		}
		return worse, "unresolved"
	}
	switch {
	case worse > m.Bound:
		return worse, "worse"
	case worse < -m.Bound:
		return worse, "better"
	}
	return worse, "within bound"
}

// compareFiles prints one row per workload and end-to-end metric,
// then the per-layer medians side by side for orientation, and
// reports whether any row is a regression.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	a, la, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, lb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn_a\tmedian_a\tspread_a\tn_b\tmedian_b\tspread_b\tworse_by\tbound\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t\t\t%d\t\t\t\t%.2f\tunresolved (no runs)\n", wl.Name, m.Name, m.Unit, len(va), len(vb), m.Bound)
				continue
			}
			worse, label := verdict(m, va, vb)
			regressed = regressed || label == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.3f\t%d\t%.6g\t%.3f\t%+.3f\t%.2f\t%s\n",
				wl.Name, m.Name, m.Unit, len(va), median(va), spread(va), len(vb), median(vb), spread(vb), worse, m.Bound, label)
		}
	}
	if err := tw.Flush(); err != nil {
		return regressed, err
	}
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	header := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.PerLayer {
			va, vb := la[wl.Name][m.Name], lb[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if !header {
				fmt.Fprintln(tw, "\nworkload\tper-layer metric\tunit\tmedian_a\tmedian_b\tsame")
				header = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%v\n", wl.Name, m.Name, m.Unit, median(va), median(vb), median(va) == median(vb))
		}
	}
	return regressed, tw.Flush()
}

package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// LintProm parses a Prometheus text exposition (version 0.0.4) with
// ParseProm and returns an error describing the first malformed line.
// Over the parsed lines it checks:
//
//   - known TYPE keywords,
//   - at most one HELP and one TYPE per family, TYPE before samples,
//   - histogram families expose only _bucket/_sum/_count samples and
//     every _bucket carries an le label,
//   - no duplicate series (same name and label set),
//   - no duplicate label key within one label block,
//   - the le label appears only on histogram _bucket samples,
//   - every series of a family exposes the same label key set (with
//     le set aside on buckets) — a family where some series carry a
//     label and others do not aggregates wrong in PromQL.
//
// scripts/check.sh runs it (via the obs tests) against the live
// assocd /metrics output — the "promtext lint" CI step.
func LintProm(r io.Reader) error {
	lines, err := ParseProm(r)
	if err != nil {
		return err
	}
	types := make(map[string]string)   // family -> TYPE
	helped := make(map[string]bool)    // family -> HELP seen
	sampled := make(map[string]bool)   // family -> sample seen
	seen := make(map[string]bool)      // name+labels -> dup check
	famKeys := make(map[string]string) // family -> canonical label key set
	for _, l := range lines {
		var err error
		switch l.Kind {
		case "HELP":
			if helped[l.Name] {
				err = fmt.Errorf("duplicate HELP for %q", l.Name)
			}
			helped[l.Name] = true
		case "TYPE":
			err = lintType(l, types, sampled)
		default:
			err = lintSample(l, types, sampled, seen, famKeys)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", l.No, err)
		}
	}
	return nil
}

func lintType(l PromLine, types map[string]string, sampled map[string]bool) error {
	switch l.Text {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		return fmt.Errorf("unknown TYPE %q for %q", l.Text, l.Name)
	}
	if _, dup := types[l.Name]; dup {
		return fmt.Errorf("duplicate TYPE for %q", l.Name)
	}
	if sampled[l.Name] {
		return fmt.Errorf("TYPE for %q after its samples", l.Name)
	}
	types[l.Name] = l.Text
	return nil
}

func lintSample(l PromLine, types map[string]string, sampled, seen map[string]bool, famKeys map[string]string) error {
	name := l.Name
	var series strings.Builder
	series.WriteString(name)
	for i, lb := range l.Labels {
		for _, prev := range l.Labels[:i] {
			if prev.Name == lb.Name {
				return fmt.Errorf("series %s: duplicate label key %q", name, lb.Name)
			}
		}
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&series, "%s%s=%q", sep, lb.Name, lb.Value)
	}
	if len(l.Labels) > 0 {
		series.WriteByte('}')
	}
	family, isBucket := name, false
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			family = base
			if suffix == "_bucket" {
				isBucket = true
				if _, ok := l.Label("le"); !ok {
					return fmt.Errorf("histogram bucket %s missing le label", series.String())
				}
			}
		}
	}
	if typ, ok := types[family]; ok && typ == "histogram" && family == name {
		return fmt.Errorf("histogram %q exposes a bare sample (want _bucket/_sum/_count)", name)
	}
	// Label-set rules: le belongs to buckets alone, and every series
	// of a family must expose the same key set (le set aside).
	var bare []string
	for _, lb := range l.Labels {
		if lb.Name == "le" {
			if !isBucket {
				return fmt.Errorf("series %s: le label on a non-bucket sample", series.String())
			}
			continue
		}
		bare = append(bare, lb.Name)
	}
	sort.Strings(bare)
	canon := strings.Join(bare, ",")
	if prev, ok := famKeys[family]; !ok {
		famKeys[family] = canon
	} else if prev != canon {
		return fmt.Errorf("family %s: inconsistent label keys {%s} vs {%s}", family, canon, prev)
	}
	sampled[family] = true
	key := series.String()
	if seen[key] {
		return fmt.Errorf("duplicate series %s", key)
	}
	seen[key] = true
	return nil
}

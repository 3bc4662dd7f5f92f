package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromLabel is one label pair of a sample, its value unescaped.
type PromLabel struct{ Name, Value string }

// PromLine is one structured line of a Prometheus text exposition
// (version 0.0.4): a "HELP" or "TYPE" comment (Kind) naming a family
// (Name) with its docstring or type keyword (Text), or a sample (Kind
// "") with its series name, labels in block order and value. Blank
// lines and free-form comments yield no PromLine.
type PromLine struct {
	No               int // 1-based line number
	Kind, Name, Text string
	Labels           []PromLabel
	Value            float64
}

// Label returns the value of the sample's label name, and whether the
// sample carries it.
func (l PromLine) Label(name string) (string, bool) {
	for _, lb := range l.Labels {
		if lb.Name == name {
			return lb.Value, true
		}
	}
	return "", false
}

// ParseProm parses a text exposition and returns an error describing
// the first line that does not parse: a malformed HELP/TYPE comment,
// an invalid metric or label name, a bad label block (quoting and
// escapes) or a value that is not a float (+Inf/-Inf/NaN allowed). A
// sample's trailing timestamp is skipped. What the lines mean
// together — types, duplicates, histogram shape — is LintProm's to
// check.
func ParseProm(r io.Reader) ([]PromLine, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []PromLine
	for no := 1; sc.Scan(); no++ {
		pl, err := parsePromLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", no, err)
		}
		if pl != nil {
			pl.No = no
			out = append(out, *pl)
		}
	}
	return out, sc.Err()
}

// parsePromLine parses one line; nil for a blank line or a free-form
// comment.
func parsePromLine(line string) (*PromLine, error) {
	if line == "" {
		return nil, nil
	}
	if strings.HasPrefix(line, "#") {
		f := strings.SplitN(line, " ", 4)
		if len(f) < 2 || (f[1] != "HELP" && f[1] != "TYPE") {
			return nil, nil
		}
		if len(f) < 3 || f[0] != "#" || (f[1] == "TYPE" && len(f) < 4) {
			return nil, fmt.Errorf("malformed %s comment %q", f[1], line)
		}
		if !validName(f[2], true) {
			return nil, fmt.Errorf("%s for invalid metric name %q", f[1], f[2])
		}
		pl := &PromLine{Kind: f[1], Name: f[2]}
		if len(f) == 4 {
			pl.Text = f[3]
		}
		if pl.Kind == "TYPE" {
			pl.Text = strings.TrimSpace(pl.Text)
		}
		return pl, nil
	}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		i = len(line)
	}
	pl := &PromLine{Name: line[:i]}
	if !validName(pl.Name, true) {
		return nil, fmt.Errorf("invalid metric name %q", pl.Name)
	}
	rest := line[i:]
	var err error
	if strings.HasPrefix(rest, "{") {
		if pl.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return nil, fmt.Errorf("series %s: %w", pl.Name, err)
		}
	}
	// A sample may carry a trailing timestamp; value is the first field.
	value, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
	if pl.Value, err = strconv.ParseFloat(value, 64); err != nil {
		return nil, fmt.Errorf("series %s: unparseable value %q", pl.Name, value)
	}
	return pl, nil
}

var promUnescape = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")

// parseLabels reads a label block after its opening brace and returns
// the labels in block order, values unescaped, and the text after the
// closing brace.
func parseLabels(s string) ([]PromLabel, string, error) {
	var labels []PromLabel
	for {
		if s == "" {
			return nil, "", errors.New("unterminated label block")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		k := strings.IndexAny(s, "=},")
		if k < 0 || s[k] != '=' || !validName(s[:k], false) {
			return nil, "", fmt.Errorf("bad label name %q", s[:max(k, 0)])
		}
		key := s[:k]
		s = s[k+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %q value not quoted", key)
		}
		j := 1
		for ; j < len(s) && s[j] != '"'; j++ {
			if s[j] == '\\' {
				if j++; j == len(s) || strings.IndexByte(`\"n`, s[j]) < 0 {
					return nil, "", fmt.Errorf("label %q value has a bad escape", key)
				}
			}
		}
		if j == len(s) {
			return nil, "", fmt.Errorf("label %q value unterminated", key)
		}
		labels = append(labels, PromLabel{key, promUnescape.Replace(s[1:j])})
		s = strings.TrimPrefix(s[j+1:], ",")
	}
}

// validName reports whether s is a valid metric name (colons allowed)
// or label name.
func validName(s string, metric bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || metric && c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9') {
			return false
		}
	}
	return s != ""
}

// PromHistograms rebuilds the histogram family name from parsed lines
// as one HistogramSnapshot per value of the label key, plus those
// values in exposition order. With key "" every series lands under
// "". An absent family reads as an empty map, so a missing value reads
// as the empty snapshot.
func PromHistograms(lines []PromLine, name, key string) (map[string]HistogramSnapshot, []string, error) {
	out := map[string]HistogramSnapshot{}
	var order []string
	for _, l := range lines {
		suffix, ok := strings.CutPrefix(l.Name, name)
		if !ok || l.Kind != "" || (suffix != "_bucket" && suffix != "_sum" && suffix != "_count") {
			continue
		}
		n := uint64(l.Value)
		if suffix != "_sum" && !(l.Value >= 0 && float64(n) == l.Value) {
			return nil, nil, fmt.Errorf("line %d: %s value %v is not a count", l.No, l.Name, l.Value)
		}
		val, _ := l.Label(key)
		s, seen := out[val]
		if !seen {
			order = append(order, val)
		}
		switch le, _ := l.Label("le"); {
		case suffix == "_sum":
			s.Sum = l.Value
		case suffix == "_count":
			s.Count = n
		case le != "+Inf": // the +Inf bucket mirrors Count
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: %s with bad le %q", l.No, l.Name, le)
			}
			s.Bounds = append(s.Bounds, b)
			s.Counts = append(s.Counts, n)
		}
		out[val] = s
	}
	for val, s := range out {
		if len(s.Bounds) > 0 {
			s.Counts = append(s.Counts, s.Count) // the +Inf slot
			out[val] = s
		}
	}
	return out, order, nil
}

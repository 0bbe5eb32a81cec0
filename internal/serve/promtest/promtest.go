// Package promtest parses the Prometheus text exposition asamapd serves, so
// tests can check its shape rather than grep for lines.
package promtest

import (
	"fmt"
	"strconv"
	"strings"
)

// Family is one metric family of an exposition: its name, its # TYPE, and
// its samples in the order they were written.
type Family struct {
	Name    string
	Type    string
	Samples []Sample
}

// Sample is one line of a family: the series (name and labels) and value.
type Sample struct {
	Series string
	Value  float64
}

// Parse reads an exposition and returns its families in order. It fails on
// the first line that breaks the format: a family with no # TYPE line
// before its first sample, or with two; a family whose lines are not
// contiguous; a series that appears twice; a value that is not a float.
// Comments other than # TYPE pass.
func Parse(text string) ([]Family, error) {
	var fams []Family
	typed := map[string]bool{}
	seen := map[string]bool{}
	for i, line := range strings.Split(text, "\n") {
		n := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 2 || f[1] != "TYPE" {
				continue
			}
			if len(f) != 4 {
				return nil, fmt.Errorf("line %d: malformed # TYPE: %q", n, line)
			}
			if typed[f[2]] {
				return nil, fmt.Errorf("line %d: second # TYPE for %s", n, f[2])
			}
			typed[f[2]] = true
			fams = append(fams, Family{Name: f[2], Type: f[3]})
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: value of %s: %v", n, series, err)
		}
		if seen[series] {
			return nil, fmt.Errorf("line %d: series %s appears twice", n, series)
		}
		seen[series] = true
		name, _, _ := strings.Cut(series, "{")
		if len(fams) == 0 || !fams[len(fams)-1].holds(name) {
			return nil, fmt.Errorf("line %d: %s is not in the block of a family typed before it", n, series)
		}
		fams[len(fams)-1].Samples = append(fams[len(fams)-1].Samples, Sample{series, v})
	}
	return fams, nil
}

// holds reports whether a sample named name belongs to f: its own name, or
// for a histogram the _bucket, _sum and _count series.
func (f Family) holds(name string) bool {
	if name == f.Name {
		return true
	}
	suffix, ok := strings.CutPrefix(name, f.Name)
	return ok && f.Type == "histogram" && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count")
}

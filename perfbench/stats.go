// Summary statistics and the result record.

package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, and
// whether at least minBeyond samples lie beyond it; a tail is reported
// only when ok.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// median is the midpoint of xs (the mean of the two middle values for
// even lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// frac is num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported values by name.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

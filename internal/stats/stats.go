// Package stats provides the measurement primitives the experiments use:
// sample collections with percentiles, CDFs, and time series of sampled
// quantities (queue lengths, rates).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is an accumulating collection of float64 observations.
// The zero value is ready for use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// AddAll records many observations.
func (s *Sample) AddAll(vs ...float64) {
	s.xs = append(s.xs, vs...)
	s.sorted = false
}

// Merge adds all of o's observations into s. The sweep harness uses it
// to pool per-run samples into cross-seed aggregates.
func (s *Sample) Merge(o *Sample) {
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	var t float64
	for _, v := range s.xs {
		t += v
	}
	return t
}

// Mean returns the average, or NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.Sum() / float64(len(s.xs))
}

// Min returns the smallest observation, or NaN when empty.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation, or NaN when empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Percentile returns the p-th percentile (0..100) by linear
// interpolation, or NaN when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Stddev returns the population standard deviation, or NaN when empty.
func (s *Sample) Stddev() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.xs {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s.xs)))
}

// Values returns a sorted copy of the observations.
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// CDF returns (value, cumulative fraction) pairs at each distinct
// observation, suitable for plotting.
func (s *Sample) CDF() []CDFPoint {
	s.sort()
	var pts []CDFPoint
	n := float64(len(s.xs))
	for i := 0; i < len(s.xs); i++ {
		//lint:allow floateq CDF detects runs of equal observations in a sorted slice of stored sample values, not freshly rounded arithmetic; exact by construction, and an epsilon would be wrong
		if i+1 < len(s.xs) && s.xs[i+1] == s.xs[i] {
			continue // emit only the last of a run of equal values
		}
		pts = append(pts, CDFPoint{Value: s.xs[i], Fraction: float64(i+1) / n})
	}
	return pts
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// Summary renders min/p10/median/mean/p90/max in one line.
func (s *Sample) Summary() string {
	if s.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%.4g p10=%.4g p50=%.4g mean=%.4g p90=%.4g max=%.4g",
		s.N(), s.Min(), s.Percentile(10), s.Median(), s.Mean(), s.Percentile(90), s.Max())
}

// Series is a time series of (t, value) points, e.g. a flow's paced rate
// or a queue length sampled on a ticker.
type Series struct {
	T []float64 // seconds
	V []float64
}

// Add appends one point.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// N returns the number of points.
func (s *Series) N() int { return len(s.T) }

// After returns the sub-series with t >= t0 (sharing storage).
func (s *Series) After(t0 float64) Series {
	i := sort.SearchFloat64s(s.T, t0)
	return Series{T: s.T[i:], V: s.V[i:]}
}

// Sample converts the series values into a Sample for percentile queries.
func (s *Series) Sample() *Sample {
	out := &Sample{}
	out.AddAll(s.V...)
	return out
}

// MeanAbsDiff returns the mean |a-b| between two series' values over
// their common prefix — the convergence metric of the paper's Fig. 11
// sweeps (throughput difference of two flows).
func MeanAbsDiff(a, b *Series) float64 {
	n := min(len(a.V), len(b.V))
	if n == 0 {
		return math.NaN()
	}
	var acc float64
	for i := 0; i < n; i++ {
		acc += math.Abs(a.V[i] - b.V[i])
	}
	return acc / float64(n)
}

// Table renders rows of labelled values as an aligned text table, the
// output format of the experiment harness.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// JainIndex returns Jain's fairness index of the values:
// (Σx)²/(n·Σx²), which is 1 for perfect equality and 1/n when one value
// monopolizes. Returns NaN for empty input.
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	//lint:allow floateq JainIndex guards the all-zero degenerate input of stored sample values, not freshly rounded arithmetic; exact by construction, and an epsilon would be wrong
	if sumSq == 0 {
		return 1 // all zero: degenerate but equal
	}
	return sum * sum / (float64(len(values)) * sumSq)
}

// Package stats holds the order statistics the benchmark reports:
// medians, nearest-rank percentiles and quartiles over float samples.
package stats

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Ms converts durations to float milliseconds.
func Ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Ratio returns num/den, or 0 when den is 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Slices groups a run's samples into consecutive fixed-width wall-clock
// slices, so the run's figures can be reported as medians over slices: a
// stall of the machine during one slice moves that slice's figure, not
// the run's.
type Slices struct {
	start time.Time
	width time.Duration
	s     []slice
}

type slice struct {
	ops  float64
	host time.Duration
	lats []float64
}

// NewSlices starts slicing at start with slices of the given width; a
// width of 0 or less puts every sample in one slice.
func NewSlices(start time.Time, width time.Duration) *Slices {
	if width <= 0 {
		width = math.MaxInt64
	}
	return &Slices{start: start, width: width}
}

func (s *Slices) at(t time.Time) *slice {
	i := max(int(t.Sub(s.start)/s.width), 0)
	for len(s.s) <= i {
		s.s = append(s.s, slice{})
	}
	return &s.s[i]
}

// Add records ops units of work finished at t that took host time.
func (s *Slices) Add(t time.Time, ops int, host time.Duration) {
	sl := s.at(t)
	sl.ops += float64(ops)
	sl.host += host
}

// Latency records one latency sample taken at t.
func (s *Slices) Latency(t time.Time, ms float64) {
	sl := s.at(t)
	sl.lats = append(sl.lats, ms)
}

// full returns the slices that span their whole width by end, or every
// slice when none does.
func (s *Slices) full(end time.Time) []slice {
	n := int(end.Sub(s.start) / s.width)
	if n < 1 || n > len(s.s) {
		return s.s
	}
	return s.s[:n]
}

// Rate is the median over full slices of work per second of host time.
func (s *Slices) Rate(end time.Time) float64 {
	var xs []float64
	for _, sl := range s.full(end) {
		if sl.host > 0 {
			xs = append(xs, sl.ops/sl.host.Seconds())
		}
	}
	return Median(xs)
}

// Percentile is the median over full slices of each slice's nearest-rank
// p-th latency percentile.
func (s *Slices) Percentile(end time.Time, p float64) float64 {
	var xs []float64
	for _, sl := range s.full(end) {
		if len(sl.lats) > 0 {
			xs = append(xs, Percentile(sl.lats, p))
		}
	}
	return Median(xs)
}

// Samples is the number of latency samples in full slices.
func (s *Slices) Samples(end time.Time) int {
	n := 0
	for _, sl := range s.full(end) {
		n += len(sl.lats)
	}
	return n
}

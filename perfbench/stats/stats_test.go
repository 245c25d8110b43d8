package stats

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("Percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestSlicesReportMediansOverFullSlices(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewSlices(start, time.Second)
	// Slices 0 and 2 run at 10 ops/s; slice 1 stalls to 1 op/s with a
	// long tail; the trailing partial slice 3 is ignored.
	for i, rate := range []int{10, 1, 10, 1000} {
		for j := 0; j < rate; j++ {
			at := start.Add(time.Duration(i)*time.Second + time.Duration(j)*time.Second/time.Duration(rate+1))
			lat := 1.0
			if i == 1 {
				lat = 100
			}
			s.Add(at, 1, time.Second/time.Duration(rate))
			s.Latency(at, lat)
		}
	}
	end := start.Add(3*time.Second + time.Second/2)
	if got := s.Rate(end); got != 10 {
		t.Errorf("rate = %v, want the median slice's 10", got)
	}
	if got := s.Percentile(end, 99); got != 1 {
		t.Errorf("p99 = %v, want the median slice's 1", got)
	}
	if got := s.Samples(end); got != 21 {
		t.Errorf("samples = %d, want 21", got)
	}
}

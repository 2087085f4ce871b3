package trace

import (
	"math"
	"testing"

	"ftpn/internal/des"
)

func TestStatsBasics(t *testing.T) {
	var s Stats
	if s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Count() != 0 {
		t.Error("empty stats must report zeros")
	}
	for _, v := range []int64{5, 3, 9, 7} {
		s.Add(v)
	}
	if s.Min() != 3 || s.Max() != 9 || s.Count() != 4 {
		t.Errorf("min/max/count = %d/%d/%d", s.Min(), s.Max(), s.Count())
	}
	if s.Mean() != 6 {
		t.Errorf("mean = %d, want 6", s.Mean())
	}
}

func TestStatsMeanRounds(t *testing.T) {
	var s Stats
	s.Add(1)
	s.Add(2) // mean 1.5 -> rounds to 2
	if s.Mean() != 2 {
		t.Errorf("mean = %d, want 2 (rounded)", s.Mean())
	}
}

func TestStatsPercentilesExactAtAnyCount(t *testing.T) {
	// A linear ramp far past 65536 samples, where an earlier retention
	// cap made percentiles an estimate: every nearest-rank percentile
	// of [1..n] is exact.
	const n = 1 << 18
	var s Stats
	for v := int64(1); v <= n; v++ {
		s.Add(v)
	}
	if s.Count() != n || s.Min() != 1 || s.Max() != n {
		t.Fatalf("count/min/max = %d/%d/%d", s.Count(), s.Min(), s.Max())
	}
	for _, p := range []float64{10, 50, 90, 99, 100} {
		if got, want := s.Percentile(p), int64(math.Ceil(p/100*n)); got != want {
			t.Errorf("p%g = %d, want %d", p, got, want)
		}
	}
}

func TestArrivals(t *testing.T) {
	var a Arrivals
	for _, at := range []des.Time{0, 100, 230, 330} {
		a.Record(at)
	}
	if a.Count() != 4 || len(a.Times()) != 4 {
		t.Fatalf("count = %d", a.Count())
	}
	s := a.Inter(0)
	if s.Min() != 100 || s.Max() != 130 || s.Count() != 3 {
		t.Errorf("inter = %s", s.String())
	}
	// Skipping the warm-up gap.
	s2 := a.Inter(1)
	if s2.Count() != 2 || s2.Max() != 130 {
		t.Errorf("inter(skip=1) = %s", s2.String())
	}
}

func TestStatsPercentiles(t *testing.T) {
	var s Stats
	if s.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
	for v := int64(1); v <= 100; v++ {
		s.Add(v)
	}
	cases := []struct {
		p    float64
		want int64
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {150, 100}, {-1, 0}}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("p%.0f = %d, want %d", c.p, got, c.want)
		}
	}
}

// Package trace collects the measurements the paper's evaluation
// reports: min/max/mean statistics (fault-detection latencies, decoded
// inter-frame timings) and arrival-time recordings. FIFO fills come from
// the channels' own MaxFill counters and the flight log.
package trace

import (
	"fmt"
	"math"
	"sort"

	"ftpn/internal/des"
)

// Stats accumulates int64 samples and reports min/max/mean (the summary
// format of Tables 2 and 3) plus percentiles. It keeps every sample, so
// every statistic is exact at any count.
type Stats struct {
	n        int64
	sum      int64
	min, max int64
	samples  []int64
}

// Add records one sample.
func (s *Stats) Add(v int64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.samples = append(s.samples, v)
}

// Count returns the number of samples.
func (s *Stats) Count() int64 { return s.n }

// Min returns the smallest sample (0 when empty).
func (s *Stats) Min() int64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Stats) Max() int64 { return s.max }

// Mean returns the rounded mean sample (0 when empty).
func (s *Stats) Mean() int64 {
	if s.n == 0 {
		return 0
	}
	return (s.sum + s.n/2) / s.n
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method; 0 when empty.
func (s *Stats) Percentile(p float64) int64 {
	if len(s.samples) == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]int64(nil), s.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// String renders "min/max/mean" in the unit of the samples.
func (s *Stats) String() string {
	return fmt.Sprintf("min=%d max=%d mean=%d (n=%d)", s.Min(), s.Max(), s.Mean(), s.Count())
}

// Arrivals records a sequence of arrival instants and summarizes the
// inter-arrival gaps (the paper's "Decoded Inter-Frame Timings").
type Arrivals struct {
	times []des.Time
}

// Record appends one arrival instant (must be called in order).
func (a *Arrivals) Record(now des.Time) { a.times = append(a.times, now) }

// Count returns the number of recorded arrivals.
func (a *Arrivals) Count() int { return len(a.times) }

// Times returns the recorded instants.
func (a *Arrivals) Times() []des.Time { return a.times }

// Inter summarizes the gaps between consecutive arrivals, skipping the
// first `skip` gaps (warm-up transient).
func (a *Arrivals) Inter(skip int) *Stats {
	s := &Stats{}
	for i := skip + 1; i < len(a.times); i++ {
		s.Add(a.times[i] - a.times[i-1])
	}
	return s
}

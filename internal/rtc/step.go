package rtc

import (
	"fmt"
	"sort"
)

// StepPoint is one breakpoint of a StepCurve: at interval length Delta
// and beyond (until the next breakpoint) the curve has value Value.
type StepPoint struct {
	Delta Time
	Value Count
}

// StepCurve is a general wide-sense increasing staircase arrival curve:
// an explicit list of breakpoints for the transient prefix, followed by a
// long-run linear extension with rate RateNum/RateDen tokens per tick
// beyond the last breakpoint. It can represent measured (calibrated)
// curves that do not fit the PJD model, as the paper's Section 3.4 allows
// ("provided as a part of the timing model, or derived from calibration
// experiments").
type StepCurve struct {
	points  []StepPoint
	rateNum Count
	rateDen Time
}

// NewStepCurve builds a StepCurve from breakpoints and a long-run rate of
// rateNum tokens per rateDen ticks (rateDen must be positive; rateNum may
// be zero for a curve that saturates). Breakpoints are sorted and
// validated for monotonicity.
func NewStepCurve(points []StepPoint, rateNum Count, rateDen Time) (*StepCurve, error) {
	if rateDen <= 0 {
		return nil, fmt.Errorf("rtc: step-curve rate denominator must be positive, got %d", rateDen)
	}
	if rateNum < 0 {
		return nil, fmt.Errorf("rtc: step-curve rate must be non-negative, got %d", rateNum)
	}
	ps := make([]StepPoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Delta < ps[j].Delta })
	for i := range ps {
		if ps[i].Delta < 0 {
			return nil, fmt.Errorf("rtc: step-curve breakpoint at negative Δ=%d", ps[i].Delta)
		}
		if ps[i].Value < 0 {
			return nil, fmt.Errorf("rtc: step-curve value must be non-negative, got %d at Δ=%d", ps[i].Value, ps[i].Delta)
		}
		if i > 0 {
			if ps[i].Delta == ps[i-1].Delta {
				return nil, fmt.Errorf("rtc: duplicate step-curve breakpoint at Δ=%d", ps[i].Delta)
			}
			if ps[i].Value < ps[i-1].Value {
				return nil, fmt.Errorf("rtc: step curve not monotone at Δ=%d (%d < %d)",
					ps[i].Delta, ps[i].Value, ps[i-1].Value)
			}
		}
	}
	return &StepCurve{points: ps, rateNum: rateNum, rateDen: rateDen}, nil
}

// Eval implements Curve. Beyond the last breakpoint the curve grows as
// lastValue + floor(rate * elapsed).
func (c *StepCurve) Eval(delta Time) Count {
	if delta <= 0 || len(c.points) == 0 {
		if delta <= 0 {
			return 0
		}
		return c.rateNum * floorDiv(delta, c.rateDen) // pure-rate curve
	}
	// Binary search for the last breakpoint with Delta <= delta.
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].Delta > delta })
	if i == 0 {
		return 0
	}
	last := c.points[i-1]
	if i < len(c.points) {
		return last.Value
	}
	elapsed := delta - last.Delta
	return last.Value + c.rateNum*floorDiv(elapsed, c.rateDen)
}

// NumBreakpoints returns the number of explicit breakpoints in the
// transient prefix of the curve.
func (c *StepCurve) NumBreakpoints() int { return len(c.points) }

// Breakpoints implements Curve: the explicit transient
// breakpoints plus, beyond the last one, the ticks where the long-run
// linear extension steps (every rateDen ticks while rateNum > 0).
func (c *StepCurve) Breakpoints(horizon Time) []Time {
	pts := []Time{0}
	var tail Time // where the rate extension starts stepping
	if len(c.points) == 0 {
		tail = 0
	} else {
		for _, p := range c.points {
			if p.Delta <= horizon {
				pts = append(pts, p.Delta)
			}
		}
		tail = c.points[len(c.points)-1].Delta
	}
	if c.rateNum > 0 {
		for delta := tail + c.rateDen; delta <= horizon; delta += c.rateDen {
			pts = append(pts, delta)
		}
	}
	return mergePoints(horizon, pts)
}

// LongRunRate implements Curve: the explicit extension rate.
func (c *StepCurve) LongRunRate() (Count, Time) { return c.rateNum, c.rateDen }

// CalibratedCurves derives an upper and a lower arrival curve from a
// trace of observed event timestamps, the way a calibration experiment
// would (paper §3.4: curves "derived from calibration experiments"). The
// curves are exact for the trace: for every window length Δ up to the
// trace span, upper(Δ) is the maximum and lower(Δ) the minimum number of
// events in any window of that length. Beyond the trace span the upper
// curve extends with the densest observed long-run rate and the lower
// curve with the sparsest.
//
// The timestamps must be sorted in non-decreasing order; maxWindows caps
// the number of distinct window lengths sampled (the full O(n²) set is
// used when maxWindows <= 0 or n is small).
func CalibratedCurves(timestamps []Time, maxWindows int) (upper, lower Curve, err error) {
	n := len(timestamps)
	if n < 2 {
		return nil, nil, fmt.Errorf("rtc: calibration needs at least 2 timestamps, got %d", n)
	}
	for i := 1; i < n; i++ {
		if timestamps[i] < timestamps[i-1] {
			return nil, nil, fmt.Errorf("rtc: calibration timestamps not sorted at index %d", i)
		}
	}
	span := timestamps[n-1] - timestamps[0]
	if span <= 0 {
		return nil, nil, fmt.Errorf("rtc: calibration trace has zero span")
	}

	// For k = 1..n-1, the tightest window containing k+1 events has length
	// min over i of timestamps[i+k]-timestamps[i]; the loosest, max over i.
	// From these, upper(Δ) >= k+1 for Δ > minSpan(k) and lower(Δ) <= k for
	// Δ < maxSpan(k) - the standard trace-to-curve construction.
	upPts := []StepPoint{{Delta: 1, Value: 1}}
	loPts := []StepPoint{}
	for k := 1; k < n; k++ {
		minSpan, maxSpan := span, Time(0)
		for i := 0; i+k < n; i++ {
			d := timestamps[i+k] - timestamps[i]
			if d < minSpan {
				minSpan = d
			}
			if d > maxSpan {
				maxSpan = d
			}
		}
		// Any window strictly longer than minSpan(k) can contain k+1 events.
		upPts = append(upPts, StepPoint{Delta: minSpan + 1, Value: Count(k + 1)})
		// A window must exceed maxSpan(k) to be guaranteed k events... the
		// guaranteed count reaches k only once Δ > maxSpan(k).
		loPts = append(loPts, StepPoint{Delta: maxSpan + 1, Value: Count(k)})
	}
	upPts = dedupeSteps(upPts)
	loPts = dedupeSteps(loPts)
	if maxWindows > 0 {
		upPts = thinStepsUpper(upPts, maxWindows)
		loPts = thinStepsLower(loPts, maxWindows)
	}

	// Long-run rates: densest k-event packing for upper, sparsest for lower.
	avgDen := span / Time(n-1)
	if avgDen <= 0 {
		avgDen = 1
	}
	u, err := NewStepCurve(upPts, 1, avgDen)
	if err != nil {
		return nil, nil, err
	}
	l, err := NewStepCurve(loPts, 1, avgDen)
	if err != nil {
		return nil, nil, err
	}
	return u, l, nil
}

// dedupeSteps keeps, for equal deltas, the largest value, and drops
// non-increasing entries so the result is strictly increasing in both
// coordinates.
func dedupeSteps(pts []StepPoint) []StepPoint {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Delta != pts[j].Delta {
			return pts[i].Delta < pts[j].Delta
		}
		return pts[i].Value < pts[j].Value
	})
	out := pts[:0]
	for _, p := range pts {
		for len(out) > 0 && out[len(out)-1].Delta == p.Delta {
			out = out[:len(out)-1]
		}
		if len(out) == 0 || p.Value > out[len(out)-1].Value {
			out = append(out, p)
		}
	}
	return out
}

// thinStepsUpper reduces an upper-curve breakpoint list to at most max
// entries conservatively: consecutive breakpoints are grouped and each
// group collapses to (earliest delta, largest value), so the thinned
// curve dominates the exact one everywhere.
func thinStepsUpper(pts []StepPoint, max int) []StepPoint {
	if len(pts) <= max || max < 1 {
		return pts
	}
	out := make([]StepPoint, 0, max)
	for g := 0; g < max; g++ {
		lo := g * len(pts) / max
		hi := (g+1)*len(pts)/max - 1
		out = append(out, StepPoint{Delta: pts[lo].Delta, Value: pts[hi].Value})
	}
	return dedupeSteps(out)
}

// thinStepsLower reduces a lower-curve breakpoint list conservatively:
// keeping a subset of the original points never overestimates, because
// between kept points the curve holds the previous (smaller) value.
func thinStepsLower(pts []StepPoint, max int) []StepPoint {
	if len(pts) <= max || max < 2 {
		return pts
	}
	out := make([]StepPoint, 0, max)
	stride := float64(len(pts)-1) / float64(max-1)
	for i := 0; i < max; i++ {
		out = append(out, pts[int(float64(i)*stride+0.5)])
	}
	return dedupeSteps(out)
}

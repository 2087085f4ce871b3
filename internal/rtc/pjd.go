package rtc

import "fmt"

// PJD is the standard <period, jitter, delay> event model used by the
// paper to report all timing parameters (Table 1). Period is the long-run
// inter-arrival time p, Jitter the maximum deviation j from the periodic
// schedule, and MinDist the minimum distance d between two consecutive
// events (the "delay" of the tuple). All values are in ticks; MinDist
// may be zero, meaning no minimum-distance constraint beyond the one
// implied by the period and jitter.
type PJD struct {
	Period  Time
	Jitter  Time
	MinDist Time
}

// String renders the model as the paper's <period, jitter, delay> tuple.
func (m PJD) String() string {
	return fmt.Sprintf("<%d,%d,%d>", m.Period, m.Jitter, m.MinDist)
}

// Validate reports whether the model parameters are usable.
func (m PJD) Validate() error {
	if m.Period <= 0 {
		return fmt.Errorf("rtc: PJD period must be positive, got %d", m.Period)
	}
	if m.Jitter < 0 {
		return fmt.Errorf("rtc: PJD jitter must be non-negative, got %d", m.Jitter)
	}
	if m.MinDist < 0 {
		return fmt.Errorf("rtc: PJD min-distance must be non-negative, got %d", m.MinDist)
	}
	if m.MinDist > m.Period {
		return fmt.Errorf("rtc: PJD min-distance %d exceeds period %d (inconsistent long-run rate)",
			m.MinDist, m.Period)
	}
	return nil
}

// ceilDiv returns ceil(a/b) for b > 0 and any a.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// floorDiv returns floor(a/b) for b > 0 and any a.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// pjdUpper is the upper arrival curve of a PJD model:
//
//	α^u(Δ) = min( ceil((Δ+j)/p), ceil(Δ/d) )   for Δ > 0,
//	α^u(Δ) = 0                                  for Δ <= 0,
//
// where the second term applies only when d > 0.
type pjdUpper struct{ m PJD }

// Eval implements Curve.
func (c pjdUpper) Eval(delta Time) Count {
	if delta <= 0 {
		return 0
	}
	n := ceilDiv(delta+c.m.Jitter, c.m.Period)
	if c.m.MinDist > 0 {
		if byDist := ceilDiv(delta, c.m.MinDist); byDist < n {
			n = byDist
		}
	}
	if n < 0 {
		n = 0
	}
	return n
}

// pjdLower is the lower arrival curve of a PJD model:
//
//	α^l(Δ) = max( 0, floor((Δ-j)/p) ).
type pjdLower struct{ m PJD }

// Eval implements Curve.
func (c pjdLower) Eval(delta Time) Count {
	if delta <= 0 {
		return 0
	}
	n := floorDiv(delta-c.m.Jitter, c.m.Period)
	if n < 0 {
		n = 0
	}
	return n
}

// Breakpoints implements Curve: a superset of the interval
// lengths where α^u can change. The ceil((Δ+j)/p) term increments at
// Δ = k·p − j + 1 and the ceil(Δ/d) term at Δ = k·d + 1, so the curve
// has O(h/p + h/d) breakpoints over a horizon h — far fewer than h.
func (c pjdUpper) Breakpoints(horizon Time) []Time {
	pts := []Time{0}
	if horizon >= 1 {
		pts = append(pts, 1)
	}
	p, j, d := c.m.Period, c.m.Jitter, c.m.MinDist
	if p > 0 {
		for k := ceilDiv(j, p); ; k++ {
			delta := k*p - j + 1
			if delta > horizon {
				break
			}
			if delta >= 1 {
				pts = append(pts, delta)
			}
		}
	}
	if d > 0 {
		for delta := d + 1; delta <= horizon; delta += d {
			pts = append(pts, delta)
		}
	}
	return mergePoints(horizon, pts)
}

// LongRunRate implements Curve: one event per period (the min-distance
// term only sharpens the transient, since MinDist <= Period).
func (c pjdUpper) LongRunRate() (Count, Time) { return 1, c.m.Period }

// Breakpoints implements Curve: floor((Δ-j)/p) increments at
// Δ = j + k·p.
func (c pjdLower) Breakpoints(horizon Time) []Time {
	pts := []Time{0}
	p, j := c.m.Period, c.m.Jitter
	if p > 0 {
		for delta := j + p; delta <= horizon; delta += p {
			pts = append(pts, delta)
		}
	}
	return mergePoints(horizon, pts)
}

// LongRunRate implements Curve.
func (c pjdLower) LongRunRate() (Count, Time) { return 1, c.m.Period }

// Upper returns the upper arrival curve α^u of the model.
func (m PJD) Upper() Curve { return pjdUpper{m} }

// Lower returns the lower arrival curve α^l of the model.
func (m PJD) Lower() Curve { return pjdLower{m} }

// LongRunRate returns the asymptotic event rate of the model as events
// per tick expressed by the pair (events, ticks) = (1, Period).
func (m PJD) LongRunRate() (events Count, ticks Time) { return 1, m.Period }

// SuggestedHorizon returns a scan horizon long enough for analyses that
// pair this model with other, comparable-rate PJD models: several periods
// past the largest transient the jitter can cause. Callers combining
// multiple models should take the maximum over all of them and sum the
// jitters; Horizon does exactly that.
func (m PJD) SuggestedHorizon() Time {
	h := 8*m.Period + 4*m.Jitter
	if m.MinDist > m.Period {
		h += 4 * m.MinDist
	}
	return h
}

// Horizon returns a scan horizon suitable for joint analyses over all the
// given models: the sum of each model's suggested horizon. This is
// intentionally generous; the analyses in this package are linear in the
// horizon and the curves are cheap to evaluate.
func Horizon(models ...PJD) Time {
	var h Time
	for _, m := range models {
		h += m.SuggestedHorizon()
	}
	if h <= 0 {
		h = 1
	}
	return h
}

// Package rtc implements the fragment of real-time calculus needed by the
// fault-tolerance framework of Rai et al. (DAC 2014): arrival curves for
// event streams, the PJD (period, jitter, minimum-distance) event model,
// and the analytic formulas used to size FIFO queues (eq. 3), compute
// initial fill levels (eq. 4), derive the divergence threshold D (eq. 5),
// and bound fault-detection latency (eq. 6-8).
//
// Time is measured in integer ticks; throughout this repository one tick
// is one microsecond of virtual time. Arrival curves are wide-sense
// increasing step functions over interval lengths Δ >= 0: an upper curve
// α^u(Δ) bounds the maximum and a lower curve α^l(Δ) the minimum number
// of events observable in any window of length Δ.
package rtc

import (
	"errors"
	"fmt"
	"sort"
)

// Time is a duration or instant of virtual time, in ticks (microseconds).
type Time = int64

// Count is a number of tokens (stream events).
type Count = int64

// Curve is an arrival curve: a wide-sense increasing staircase from an
// interval length Δ (in ticks) to a token count. The solvers in this
// package scan only a curve's breakpoints, O(breakpoints) interval
// lengths instead of every integer tick up to the horizon, and decide
// unboundedness exactly from long-run rates.
type Curve interface {
	// Eval returns the curve value at interval length delta: 0 for
	// delta <= 0, and monotone in delta.
	Eval(delta Time) Count

	// Breakpoints returns interval lengths in [0, horizon], sorted
	// ascending and starting with 0, that include every Δ in the range
	// with Eval(Δ) != Eval(Δ-1). Supersets are allowed (extra points
	// where the value does not change are harmless); omissions are not.
	Breakpoints(horizon Time) []Time

	// LongRunRate returns the asymptotic rate as the pair
	// (tokens, per): tokens per `per` ticks, with per > 0.
	LongRunRate() (tokens Count, per Time)
}

// zeroCurve is the identically-zero curve; it has a single breakpoint
// at the origin and a long-run rate of zero.
type zeroCurve struct{}

func (zeroCurve) Eval(Time) Count            { return 0 }
func (zeroCurve) Breakpoints(Time) []Time    { return []Time{0} }
func (zeroCurve) LongRunRate() (Count, Time) { return 0, 1 }

// Zero is the arrival curve that is identically zero. It models a stream
// that has stopped entirely, e.g. a replica suffering a fail-silent
// timing fault (the ᾱ^u of eq. 8).
var Zero Curve = zeroCurve{}

// rateExceeds reports whether rate an/ad strictly exceeds bn/bd.
func rateExceeds(an Count, ad Time, bn Count, bd Time) bool {
	return an*Count(bd) > bn*Count(ad)
}

// mergePoints merges breakpoint lists into one ascending, deduplicated
// list of candidate interval lengths in [0, h], always including 0.
func mergePoints(h Time, lists ...[]Time) []Time {
	n := 1
	for _, l := range lists {
		n += len(l)
	}
	pts := make([]Time, 1, n)
	for _, l := range lists {
		for _, p := range l {
			if p > 0 && p <= h {
				pts = append(pts, p)
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	out := pts[:1]
	for _, p := range pts[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// ErrUnbounded is returned by analyses whose supremum does not stabilize
// within the scan horizon, which indicates diverging long-run rates
// (e.g. a producer strictly faster than its consumer: no finite FIFO
// capacity exists).
var ErrUnbounded = errors.New("rtc: supremum does not converge within horizon")

// ErrUnreachable is returned by detection-latency bounds when the
// required token-count gap is never reached within the scan horizon.
var ErrUnreachable = errors.New("rtc: bound not reached within horizon")

// validateHorizon normalizes a scan horizon, rejecting non-positive ones.
func validateHorizon(h Time) (Time, error) {
	if h <= 0 {
		return 0, fmt.Errorf("rtc: horizon must be positive, got %d", h)
	}
	return h, nil
}

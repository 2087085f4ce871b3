package rtc

// Reference solvers: the original per-tick dense-scan implementations,
// retained verbatim after the breakpoint-driven rewrite as test oracles —
// the equivalence property tests check that the breakpoint solvers
// return exactly the same values on randomized models. They scan every
// integer tick and are O(horizon); do not use them on production paths.

// DenseSupDiff computes sup_{0<=Δ<=horizon} { a(Δ) - b(Δ) } by scanning
// every tick, verifying convergence with the last-improvement heuristic:
// if a new maximum is still being attained in the last eighth of the
// horizon, the difference is considered divergent and ErrUnbounded is
// returned.
func DenseSupDiff(a, b Curve, horizon Time) (Count, error) {
	h, err := validateHorizon(horizon)
	if err != nil {
		return 0, err
	}
	var sup Count
	lastImprove := Time(0)
	for delta := Time(0); delta <= h; delta++ {
		if d := a.Eval(delta) - b.Eval(delta); d > sup {
			sup = d
			lastImprove = delta
		}
	}
	if h >= 16 && lastImprove > h-h/8 {
		return 0, ErrUnbounded
	}
	return sup, nil
}

// DenseDetectionBound is the per-tick reference for DetectionBound: the
// smallest Δ with healthyLower(Δ) - faultyUpper(Δ) >= 2D-1.
func DenseDetectionBound(healthyLower, faultyUpper Curve, d Count, horizon Time) (Time, error) {
	h, err := validateHorizon(horizon)
	if err != nil {
		return 0, err
	}
	need := 2*d - 1
	for delta := Time(0); delta <= h; delta++ {
		if healthyLower.Eval(delta)-faultyUpper.Eval(delta) >= need {
			return delta, nil
		}
	}
	return 0, ErrUnreachable
}

// DenseTimeToReach is the per-tick reference for TimeToReach: the
// smallest Δ in [0, horizon] with c(Δ) >= need.
func DenseTimeToReach(c Curve, need Count, horizon Time) (Time, error) {
	h, err := validateHorizon(horizon)
	if err != nil {
		return 0, err
	}
	for delta := Time(0); delta <= h; delta++ {
		if c.Eval(delta) >= need {
			return delta, nil
		}
	}
	return 0, ErrUnreachable
}

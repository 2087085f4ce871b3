package rtc

// This file implements the analytic formulas of Section 3.4 of the paper.
// All analyses are exact over integer-tick staircase curves, but instead
// of scanning every interval length Δ = 0..horizon they iterate only the
// curves' breakpoints — the Δ where a staircase can change value — which
// turns O(horizon) scans into O(breakpoints) scans (classic RTC/MPA
// toolkit technique). Value-equivalence with the dense reference
// implementations in reference.go is checked by property tests.

// BufferCapacity computes the minimum FIFO capacity |F_P| such that a
// producer with upper arrival curve prodUpper never blocks on a consumer
// with lower service/arrival curve consLower (eq. 3):
//
//	α_P^u(Δ) <= α_in^l(Δ) + |F_P|   for all Δ >= 0.
//
// The capacity is the supremum of the difference of the two curves. The
// scan verifies convergence: the supremum must not be attained only at
// the very end of the horizon with the difference still growing.
func BufferCapacity(prodUpper, consLower Curve, horizon Time) (Count, error) {
	return supDiff(prodUpper, consLower, horizon)
}

// InitialFill computes the minimum number of tokens F_{C,0} that must be
// pre-loaded into the consumer-side FIFO so the consumer never stalls on
// an empty queue (eq. 4):
//
//	α_out^l(Δ) >= α_C^u(Δ) - F_{C,0}   for all Δ >= 0,
//
// i.e. F_{C,0} = sup_Δ { α_C^u(Δ) - α_out^l(Δ) }.
func InitialFill(outLower, consUpper Curve, horizon Time) (Count, error) {
	return supDiff(consUpper, outLower, horizon)
}

// DivergenceThreshold computes the smallest integer D that can never be
// reached by the difference in total tokens received from two fault-free
// replicas (eq. 5):
//
//	D > sup_{i≠j, λ>=0} { α_{i,out}^u(λ) - α_{j,out}^l(λ) }.
//
// Both orderings (1 vs 2 and 2 vs 1) are considered. A selector (or
// replicator) using this D is guaranteed free of false positives.
func DivergenceThreshold(upper1, lower1, upper2, lower2 Curve, horizon Time) (Count, error) {
	s12, err := supDiff(upper1, lower2, horizon)
	if err != nil {
		return 0, err
	}
	s21, err := supDiff(upper2, lower1, horizon)
	if err != nil {
		return 0, err
	}
	s := s12
	if s21 > s {
		s = s21
	}
	// Smallest integer strictly greater than the supremum.
	return s + 1, nil
}

// Detection latency under a violation budget m. The paper's detectors
// convict on the first violation (m = 0). Under an (m,k) weakly-hard
// policy (Liang et al.) a replica is convicted only when more than m of
// its last k detection samples were violations, so a permanently faulty
// replica must first accumulate m+1 violating samples. The bounds below
// account for those m forgiven violations; k does not appear, because a
// permanent fault violates every sample once past the threshold, so any
// k > m window fills with violations regardless of its length (k only
// controls how much history a transient needs to outlive).
//
// The divergence threshold D itself must NOT shrink under (m,k). Eq. 5's
// D is the smallest bound two fault-free replicas can never reach; any
// smaller D' admits fault-free excursions that can persist for
// unboundedly many consecutive samples (the envelopes allow a replica to
// sit at the supremum difference for arbitrarily long), so no finite m
// forgives them safely. The relaxation is in the conviction rule only.

// DetectionBound computes the maximum time to detect a fault (eq. 6): the
// smallest Δ such that the healthy replica's lower curve exceeds the
// faulty replica's post-fault upper curve by at least 2D-1+m tokens:
//
//	inf { Δ | (α_healthy^l - ᾱ_faulty^u)(Δ) >= 2D-1+m }.
//
// The binary bound inverts a 2D-1 token gap — D-1 tokens of pre-fault
// slack, then D more to reach the threshold. Divergence samples arrive
// one per counted write of the healthy side and each write past the
// threshold is one violation, so a budget of m forgiven violations
// (m < 0 counts as 0) adds m tokens to the gap.
//
// Pass rtc.Zero as faultyUpper for a replica that stops producing
// entirely (eq. 8). ErrUnreachable is returned when the gap is never
// reached within the horizon (the "faulty" curve still satisfies the
// constraints, i.e. it is not detectably faulty).
func DetectionBound(healthyLower, faultyUpper Curve, d Count, m int, horizon Time) (Time, error) {
	h, err := validateHorizon(horizon)
	if err != nil {
		return 0, err
	}
	need := 2*d - 1 + Count(max(m, 0))
	// The difference of two staircases is piecewise constant between
	// their merged breakpoints, so the smallest satisfying Δ is the left
	// endpoint of the first satisfying segment — a breakpoint.
	for _, p := range mergePoints(h, healthyLower.Breakpoints(h), faultyUpper.Breakpoints(h)) {
		if healthyLower.Eval(p)-faultyUpper.Eval(p) >= need {
			return p, nil
		}
	}
	return 0, ErrUnreachable
}

// TimeToReach returns the smallest Δ in [0, horizon] with c(Δ) >= need,
// or ErrUnreachable if the count is never reached within the horizon.
// It generalizes the bound-inversion scans of eq. 6-8 (detection is
// "time for a lower curve to deliver a token-count gap").
func TimeToReach(c Curve, need Count, horizon Time) (Time, error) {
	h, err := validateHorizon(horizon)
	if err != nil {
		return 0, err
	}
	for _, p := range c.Breakpoints(h) {
		if c.Eval(p) >= need {
			return p, nil
		}
	}
	return 0, ErrUnreachable
}

// MaxDetectionBound generalizes DetectionBound over all replica pairs
// (eq. 7): the worst case over which replica is faulty. healthyLowers[i]
// and faultyUppers[i] describe replica i's healthy lower curve and its
// assumed post-fault upper curve; the bound for "replica j faulty" uses
// every other replica i's healthy lower curve against ᾱ_j^u, and the
// result is the maximum over all such pairs of the per-pair infimum.
func MaxDetectionBound(healthyLowers, faultyUppers []Curve, d Count, m int, horizon Time) (Time, error) {
	if len(healthyLowers) != len(faultyUppers) || len(healthyLowers) < 2 {
		return 0, ErrUnreachable
	}
	var worst Time
	for j := range faultyUppers {
		for i := range healthyLowers {
			if i == j {
				continue
			}
			b, err := DetectionBound(healthyLowers[i], faultyUppers[j], d, m, horizon)
			if err != nil {
				return 0, err
			}
			worst = max(worst, b)
		}
	}
	return worst, nil
}

// StoppedDetectionBound specializes eq. 8: the faulty replica produces
// nothing after the fault, so the bound is the worst case over replicas
// of inf { Δ | α_i^l(Δ) >= 2D-1+m }.
func StoppedDetectionBound(healthyLowers []Curve, d Count, m int, horizon Time) (Time, error) {
	var worst Time
	for _, l := range healthyLowers {
		b, err := DetectionBound(l, Zero, d, m, horizon)
		if err != nil {
			return 0, err
		}
		worst = max(worst, b)
	}
	return worst, nil
}

// StallViolationBudget estimates the (m,k) violation budget m needed to
// forgive a transient stall of glitchUs on a replica: while stalled and
// then catching up, the healthy side issues violating divergence
// samples; bounding the catch-up phase by a second glitch-length of
// writes gives m ≈ α_h^u(2·glitch). The factor 2 is a heuristic backed
// by the workloads' low stage utilization (a recovered replica drains
// its backlog much faster than the period, so catch-up adds well under
// one glitch-length of violating samples); detectbench measures the
// real margin. Returns at least 1.
func StallViolationBudget(healthyUpper Curve, glitchUs Time, horizon Time) (int, error) {
	h, err := validateHorizon(horizon)
	if err != nil {
		return 0, err
	}
	return max(int(healthyUpper.Eval(min(2*glitchUs, h))), 1), nil
}

// supDiff computes sup_{0<=Δ<=horizon} { a(Δ) - b(Δ) } by evaluating
// only at the merged breakpoints of the two curves (the difference is
// constant in between, so the per-segment maximum sits at the left
// endpoint). Divergence is decided exactly from long-run rates: the
// supremum is infinite iff a's rate strictly exceeds b's.
func supDiff(a, b Curve, horizon Time) (Count, error) {
	h, err := validateHorizon(horizon)
	if err != nil {
		return 0, err
	}
	an, ad := a.LongRunRate()
	bn, bd := b.LongRunRate()
	if rateExceeds(an, ad, bn, bd) {
		return 0, ErrUnbounded
	}
	var sup Count
	for _, p := range mergePoints(h, a.Breakpoints(h), b.Breakpoints(h)) {
		sup = max(sup, a.Eval(p)-b.Eval(p))
	}
	return sup, nil
}

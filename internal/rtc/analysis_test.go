package rtc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBufferCapacityMatchedRates(t *testing.T) {
	// Producer and consumer both period 10; producer jitter 5, consumer
	// jitter 15: capacity must absorb producer bursts plus consumer lag.
	prod := PJD{Period: 10, Jitter: 5}
	cons := PJD{Period: 10, Jitter: 15}
	cap, err := BufferCapacity(prod.Upper(), cons.Lower(), Horizon(prod, cons))
	if err != nil {
		t.Fatal(err)
	}
	// sup { ceil((Δ+5)/10) - max(0, floor((Δ-15)/10)) }: at Δ=15, 2-0=2; at
	// Δ=25, 3-1=2; at Δ=16..24, ceil((Δ+5)/10)=3 at Δ=16? ceil(21/10)=3,
	// floor(1/10)=0 => 3. Check it finds the true sup of 3.
	if cap != 3 {
		t.Errorf("BufferCapacity = %d, want 3", cap)
	}
}

func TestBufferCapacityZeroJitter(t *testing.T) {
	// Identical strictly periodic producer and consumer: capacity 1 is
	// enough (a token may arrive just before it is consumed).
	m := PJD{Period: 10}
	cap, err := BufferCapacity(m.Upper(), m.Lower(), Horizon(m, m))
	if err != nil {
		t.Fatal(err)
	}
	if cap != 1 {
		t.Errorf("BufferCapacity = %d, want 1", cap)
	}
}

func TestBufferCapacityUnbounded(t *testing.T) {
	// Producer strictly faster than consumer: no finite capacity.
	prod := PJD{Period: 9}
	cons := PJD{Period: 10}
	_, err := BufferCapacity(prod.Upper(), cons.Lower(), 100000)
	if !errors.Is(err, ErrUnbounded) {
		t.Errorf("BufferCapacity mismatched rates: err = %v, want ErrUnbounded", err)
	}
}

func TestBufferCapacityBadHorizon(t *testing.T) {
	m := PJD{Period: 10}
	if _, err := BufferCapacity(m.Upper(), m.Lower(), 0); err == nil {
		t.Error("BufferCapacity with horizon 0: want error")
	}
}

func TestInitialFill(t *testing.T) {
	// Replica output lags (jitter 20), consumer strict period 10: the
	// consumer can demand tokens before the replica guarantees them.
	out := PJD{Period: 10, Jitter: 20}
	cons := PJD{Period: 10}
	fill, err := InitialFill(out.Lower(), cons.Upper(), Horizon(out, cons))
	if err != nil {
		t.Fatal(err)
	}
	// sup { ceil(Δ/10) - max(0, floor((Δ-20)/10)) } = 3 (e.g. Δ=21: 3-0).
	if fill != 3 {
		t.Errorf("InitialFill = %d, want 3", fill)
	}
}

func TestDivergenceThresholdSymmetric(t *testing.T) {
	// Two replicas, same period, jitters 5 and 15.
	r1 := PJD{Period: 10, Jitter: 5}
	r2 := PJD{Period: 10, Jitter: 15}
	d, err := DivergenceThreshold(r1.Upper(), r1.Lower(), r2.Upper(), r2.Lower(), Horizon(r1, r2))
	if err != nil {
		t.Fatal(err)
	}
	// sup(u1-l2) at Δ=16..24 region: ceil((Δ+5)/10) - floor((Δ-15)/10):
	// Δ=25: 3-1=2; Δ=16: ceil(21/10)=3 - 0 = 3.
	// sup(u2-l1): Δ=6: ceil(21/10)=3 - 0 = 3; Δ=16: ceil(31/10)=4 - floor(11/10)=1 -> 3.
	// So sup = 3, D = 4.
	if d != 4 {
		t.Errorf("DivergenceThreshold = %d, want 4", d)
	}
}

func TestDivergenceThresholdIdenticalReplicas(t *testing.T) {
	r := PJD{Period: 10}
	d, err := DivergenceThreshold(r.Upper(), r.Lower(), r.Upper(), r.Lower(), Horizon(r, r))
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("DivergenceThreshold identical strict replicas = %d, want 2", d)
	}
}

func TestDetectionBoundStoppedReplica(t *testing.T) {
	// Healthy replica strictly periodic p=10, D=4: need lower(Δ) >= 7,
	// first at Δ = 70.
	healthy := PJD{Period: 10}
	b, err := DetectionBound(healthy.Lower(), Zero, 4, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if b != 70 {
		t.Errorf("DetectionBound = %d, want 70", b)
	}
}

func TestDetectionBoundDegradedReplica(t *testing.T) {
	// Faulty replica degrades to period 40 (still producing, too slow);
	// healthy stays at period 10. Gap 2D-1 = 7 must open up.
	healthy := PJD{Period: 10}
	degraded := PJD{Period: 40}
	b, err := DetectionBound(healthy.Lower(), degraded.Upper(), 4, 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// lower(Δ)=floor(Δ/10), degradedUpper(Δ)=ceil(Δ/40). At Δ=100: 10-3=7. ok
	// Check earlier: Δ=90: 9-3=6; Δ=95: 9-3=6; Δ=100 first.
	if b != 100 {
		t.Errorf("DetectionBound degraded = %d, want 100", b)
	}
	// Degraded detection must be slower than full-stop detection.
	stop, err := DetectionBound(healthy.Lower(), Zero, 4, 0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if stop >= b {
		t.Errorf("stopped bound %d should be < degraded bound %d", stop, b)
	}
}

func TestDetectionBoundUnreachable(t *testing.T) {
	// "Faulty" replica as fast as the healthy one: gap never opens.
	m := PJD{Period: 10}
	_, err := DetectionBound(m.Lower(), m.Upper(), 4, 0, 5000)
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestMaxDetectionBoundAsymmetric(t *testing.T) {
	// Replica 1 fast (p=10), replica 2 slow-ish (p=10, j=30): worst case
	// is detecting a fault of replica 1 using replica 2's lower curve.
	r1 := PJD{Period: 10}
	r2 := PJD{Period: 10, Jitter: 30}
	lowers := []Curve{r1.Lower(), r2.Lower()}
	uppers := []Curve{Zero, Zero} // both stop entirely after a fault
	b, err := MaxDetectionBound(lowers, uppers, 4, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := DetectionBound(r2.Lower(), Zero, 4, 0, 10000) // replica 1 faulty
	b2, _ := DetectionBound(r1.Lower(), Zero, 4, 0, 10000) // replica 2 faulty
	want := b1
	if b2 > want {
		want = b2
	}
	if b != want {
		t.Errorf("MaxDetectionBound = %d, want %d", b, want)
	}
	if b1 <= b2 {
		t.Errorf("expected asymmetry: bound with jittery healthy replica (%d) should exceed %d", b1, b2)
	}
}

func TestMaxDetectionBoundDegenerate(t *testing.T) {
	if _, err := MaxDetectionBound(nil, nil, 2, 0, 100); err == nil {
		t.Error("MaxDetectionBound(nil) should fail")
	}
	m := PJD{Period: 5}
	if _, err := MaxDetectionBound([]Curve{m.Lower()}, []Curve{Zero}, 2, 0, 100); err == nil {
		t.Error("MaxDetectionBound with one replica should fail")
	}
}

func TestStoppedDetectionBound(t *testing.T) {
	r1 := PJD{Period: 10}
	r2 := PJD{Period: 10, Jitter: 20}
	b, err := StoppedDetectionBound([]Curve{r1.Lower(), r2.Lower()}, 3, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// 2D-1 = 5. r1: floor(Δ/10) >= 5 at 50. r2: floor((Δ-20)/10) >= 5 at 70.
	if b != 70 {
		t.Errorf("StoppedDetectionBound = %d, want 70", b)
	}
}

// Property: detection bound is monotone in D — a larger threshold never
// detects faster.
func TestDetectionBoundMonotoneInD(t *testing.T) {
	prop := func(period uint8, jitter uint8, d uint8) bool {
		m := PJD{Period: Time(period%40) + 1, Jitter: Time(jitter % 40)}
		dd := Count(d%8) + 1
		b1, err1 := DetectionBound(m.Lower(), Zero, dd, 0, 1<<20)
		b2, err2 := DetectionBound(m.Lower(), Zero, dd+1, 0, 1<<20)
		if err1 != nil || err2 != nil {
			return false
		}
		return b2 >= b1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: eq. 3 really holds — simulate the worst-case producer trace
// against the guaranteed consumer trace and confirm the computed capacity
// is never exceeded.
func TestBufferCapacitySufficient(t *testing.T) {
	prop := func(pj uint8, cj uint8) bool {
		p := Time(20)
		prod := PJD{Period: p, Jitter: Time(pj % 40)}
		cons := PJD{Period: p, Jitter: Time(cj % 40)}
		capTok, err := BufferCapacity(prod.Upper(), cons.Lower(), Horizon(prod, cons))
		if err != nil {
			return false
		}
		// Backlog at any Δ is at most prodUpper(Δ) - consLower(Δ) when the
		// queue never empties; verify across a long window.
		for delta := Time(0); delta < 50*p; delta++ {
			if prod.Upper().Eval(delta)-cons.Lower().Eval(delta) > capTok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: D from eq. 5 admits no false positives — for any fault-free
// pair of traces within their envelopes, |received1 - received2| < D.
func TestDivergenceThresholdNoFalsePositives(t *testing.T) {
	prop := func(j1, j2 uint8) bool {
		p := Time(25)
		r1 := PJD{Period: p, Jitter: Time(j1 % 50)}
		r2 := PJD{Period: p, Jitter: Time(j2 % 50)}
		d, err := DivergenceThreshold(r1.Upper(), r1.Lower(), r2.Upper(), r2.Lower(), Horizon(r1, r2))
		if err != nil {
			return false
		}
		// The worst divergence over a window Δ is bounded by
		// max(u1(Δ)-l2(Δ), u2(Δ)-l1(Δ)); verify < D over a long window.
		for delta := Time(0); delta < 100*p; delta++ {
			d12 := r1.Upper().Eval(delta) - r2.Lower().Eval(delta)
			d21 := r2.Upper().Eval(delta) - r1.Lower().Eval(delta)
			if d12 >= d || d21 >= d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomPJD draws a well-formed PJD envelope for property tests.
func randomPJD(rng *rand.Rand) PJD {
	p := Time(100 + rng.Intn(2000))
	j := Time(rng.Intn(int(3 * p)))
	var d Time
	if rng.Intn(2) == 0 && p > 2 {
		d = Time(1 + rng.Intn(int(p/2)))
	}
	return PJD{Period: p, Jitter: j, MinDist: d}
}

// TestDetectionBoundMKMonotoneInM: forgiving more violations of an
// (m,k) policy can only delay detection, so the bound is non-decreasing
// in the violation budget m.
func TestDetectionBoundMKMonotoneInM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		healthy := randomPJD(rng)
		h := Horizon(healthy) * 16
		d := Count(1 + rng.Intn(4))
		prev := Time(-1)
		for m := 0; m <= 8; m++ {
			b, err := DetectionBound(healthy.Lower(), Zero, d, m, h)
			if err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, m, err)
			}
			if b < prev {
				t.Fatalf("trial %d: bound decreased from %d to %d at m=%d", trial, prev, b, m)
			}
			prev = b
		}
	}
}

// TestStallViolationBudget sanity: the budget is positive and grows
// (weakly) with the glitch length.
func TestStallViolationBudget(t *testing.T) {
	healthy := PJD{Period: 1000, Jitter: 500}
	h := Horizon(healthy) * 16
	prev := 0
	for _, g := range []Time{0, 500, 1000, 5000, 20000} {
		m, err := StallViolationBudget(healthy.Upper(), g, h)
		if err != nil {
			t.Fatal(err)
		}
		if m < 1 {
			t.Fatalf("budget %d < 1 for glitch %d", m, g)
		}
		if m < prev {
			t.Fatalf("budget shrank from %d to %d at glitch %d", prev, m, g)
		}
		prev = m
	}
}

package rtc

import (
	"testing"
	"testing/quick"
)

func TestNewStepCurveValidation(t *testing.T) {
	if _, err := NewStepCurve(nil, 1, 0); err == nil {
		t.Error("zero rate denominator should fail")
	}
	if _, err := NewStepCurve(nil, -1, 10); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := NewStepCurve([]StepPoint{{Delta: -1, Value: 1}}, 1, 10); err == nil {
		t.Error("negative delta should fail")
	}
	if _, err := NewStepCurve([]StepPoint{{Delta: 5, Value: 2}, {Delta: 5, Value: 3}}, 1, 10); err == nil {
		t.Error("duplicate delta should fail")
	}
	if _, err := NewStepCurve([]StepPoint{{Delta: 1, Value: 3}, {Delta: 5, Value: 2}}, 1, 10); err == nil {
		t.Error("non-monotone values should fail")
	}
	if _, err := NewStepCurve([]StepPoint{{Delta: 1, Value: -1}}, 1, 10); err == nil {
		t.Error("negative value should fail")
	}
}

func TestStepCurveEval(t *testing.T) {
	c, err := NewStepCurve([]StepPoint{
		{Delta: 1, Value: 1},
		{Delta: 10, Value: 3},
		{Delta: 25, Value: 4},
	}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		delta Time
		want  Count
	}{
		{0, 0}, {-3, 0},
		{1, 1}, {9, 1},
		{10, 3}, {24, 3},
		{25, 4}, {34, 4},
		{35, 5},   // 4 + floor(10/10)
		{105, 12}, // 4 + floor(80/10)
	}
	for _, c2 := range cases {
		if got := c.Eval(c2.delta); got != c2.want {
			t.Errorf("Eval(%d) = %d, want %d", c2.delta, got, c2.want)
		}
	}
	if c.NumBreakpoints() != 3 {
		t.Errorf("NumBreakpoints = %d, want 3", c.NumBreakpoints())
	}
}

func TestStepCurvePureRate(t *testing.T) {
	c, err := NewStepCurve(nil, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Eval(25); got != 10 {
		t.Errorf("pure-rate Eval(25) = %d, want 10", got)
	}
	if got := c.Eval(0); got != 0 {
		t.Errorf("pure-rate Eval(0) = %d, want 0", got)
	}
}

func TestStepCurveSortsInput(t *testing.T) {
	c, err := NewStepCurve([]StepPoint{
		{Delta: 10, Value: 3},
		{Delta: 1, Value: 1},
	}, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Eval(5); got != 1 {
		t.Errorf("Eval(5) = %d, want 1", got)
	}
}

// Property: step curves are monotone regardless of rate/breakpoints.
func TestStepCurveMonotone(t *testing.T) {
	prop := func(v1, v2, v3 uint8, d1, d2 uint16) bool {
		a, b, c := Count(v1%10), Count(v1%10)+Count(v2%10), Count(v1%10)+Count(v2%10)+Count(v3%10)
		sc, err := NewStepCurve([]StepPoint{
			{Delta: 1, Value: a},
			{Delta: 50, Value: b},
			{Delta: 200, Value: c},
		}, 1, 25)
		if err != nil {
			return false
		}
		x, y := Time(d1), Time(d2)
		if x > y {
			x, y = y, x
		}
		return sc.Eval(x) <= sc.Eval(y)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCalibratedCurvesPeriodicTrace(t *testing.T) {
	// A strictly periodic trace should calibrate to curves close to the
	// PJD{Period:10} envelope.
	ts := make([]Time, 50)
	for i := range ts {
		ts[i] = Time(i) * 10
	}
	u, l, err := CalibratedCurves(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Windows of length 11 contain at most 2 events, at least 1.
	if got := u.Eval(11); got != 2 {
		t.Errorf("calibrated upper(11) = %d, want 2", got)
	}
	if got := l.Eval(9); got != 0 {
		t.Errorf("calibrated lower(9) = %d, want 0", got)
	}
	if got := l.Eval(11); got != 1 {
		t.Errorf("calibrated lower(11) = %d, want 1", got)
	}
}

func TestCalibratedCurvesEnvelopeHolds(t *testing.T) {
	// The calibrated curves must bound the trace that produced them.
	ts := []Time{0, 8, 21, 30, 44, 50, 63, 70, 85, 90}
	u, l, err := CalibratedCurves(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ts)
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			delta := ts[b] - ts[a] + 1
			cnt := Count(b - a + 1)
			if got := u.Eval(delta); got < cnt {
				t.Fatalf("upper(%d) = %d < observed %d events", delta, got, cnt)
			}
		}
	}
	// Lower bound: the guaranteed count must not exceed the minimum over
	// all window placements that lie fully inside the observation span.
	span := ts[n-1]
	for _, delta := range []Time{5, 15, 25, 40, 60, 90} {
		min := Count(n)
		for a := 0; a < n; a++ {
			if ts[a]+delta > span {
				continue
			}
			var cnt Count
			for k := 0; k < n; k++ {
				if ts[k] >= ts[a] && ts[k] < ts[a]+delta {
					cnt++
				}
			}
			if cnt < min {
				min = cnt
			}
		}
		if got := l.Eval(delta); got > min {
			t.Fatalf("lower(%d) = %d > guaranteed minimum %d", delta, got, min)
		}
	}
}

func TestCalibratedCurvesErrors(t *testing.T) {
	if _, _, err := CalibratedCurves([]Time{5}, 0); err == nil {
		t.Error("single timestamp should fail")
	}
	if _, _, err := CalibratedCurves([]Time{5, 3}, 0); err == nil {
		t.Error("unsorted timestamps should fail")
	}
	if _, _, err := CalibratedCurves([]Time{5, 5}, 0); err == nil {
		t.Error("zero-span trace should fail")
	}
}

func TestCalibratedCurvesThinning(t *testing.T) {
	ts := make([]Time, 200)
	for i := range ts {
		ts[i] = Time(i)*10 + Time(i%3) // slight jitter
	}
	u, l, err := CalibratedCurves(ts, 16)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := u.(*StepCurve)
	if !ok {
		t.Fatal("calibrated curve is not a *StepCurve")
	}
	if sc.NumBreakpoints() > 16 {
		t.Errorf("thinned curve has %d breakpoints, want <= 16", sc.NumBreakpoints())
	}
	// Thinning must stay conservative: thinned upper >= exact upper,
	// thinned lower <= exact lower, at every sampled window length.
	uFull, lFull, err := CalibratedCurves(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for delta := Time(0); delta <= ts[len(ts)-1]; delta += 7 {
		if u.Eval(delta) < uFull.Eval(delta) {
			t.Fatalf("thinned upper(%d)=%d below exact %d", delta, u.Eval(delta), uFull.Eval(delta))
		}
		if l.Eval(delta) > lFull.Eval(delta) {
			t.Fatalf("thinned lower(%d)=%d above exact %d", delta, l.Eval(delta), lFull.Eval(delta))
		}
	}
}

func TestZeroCurve(t *testing.T) {
	for _, d := range []Time{-1, 0, 1, 1000000} {
		if Zero.Eval(d) != 0 {
			t.Errorf("Zero.Eval(%d) != 0", d)
		}
	}
}

package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChirp(t *testing.T) {
	c, err := Chirp(256, 0.05, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 256 {
		t.Fatalf("len = %d", len(c))
	}
	for _, v := range c {
		if v < -1.0001 || v > 1.0001 {
			t.Fatalf("chirp sample %g outside [-1,1]", v)
		}
	}
	if _, err := Chirp(0, 0.1, 0.2); err == nil {
		t.Error("zero length should fail")
	}
	if _, err := Chirp(10, 0.6, 0.2); err == nil {
		t.Error("frequency above Nyquist should fail")
	}
}

func TestFIRIdentityAndDelay(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := FIR(x, []float64{1}); !almostEqual(got, x) {
		t.Errorf("identity FIR = %v", got)
	}
	got := FIR(x, []float64{0, 1}) // one-sample delay
	want := []float64{0, 1, 2, 3, 4}
	if !almostEqual(got, want) {
		t.Errorf("delay FIR = %v, want %v", got, want)
	}
}

func TestFIRLinearity(t *testing.T) {
	prop := func(seed uint16) bool {
		n := 64
		x := make([]float64, n)
		y := make([]float64, n)
		s := uint64(seed) + 1
		for i := range x {
			s = s*6364136223846793005 + 1
			x[i] = float64(int32(s>>33)) / (1 << 30)
			s = s*6364136223846793005 + 1
			y[i] = float64(int32(s>>33)) / (1 << 30)
		}
		h := []float64{0.5, -0.25, 0.125}
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		a := FIR(sum, h)
		bx, by := FIR(x, h), FIR(y, h)
		for i := range a {
			if math.Abs(a[i]-bx[i]-by[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatchedFilterPeaksAtPulse(t *testing.T) {
	pulse, err := Chirp(64, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 300
	sig, err := AddEchoes(1024, pulse, []int{delay}, []float64{1}, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	mf := MatchedFilter(sig, pulse)
	env := Envelope(mf, 8)
	peak := peakCell(env)
	want := delay + len(pulse) - 1
	if peak < want-4 || peak > want+4 {
		t.Errorf("matched-filter peak at %d, want near %d", peak, want)
	}
}

func TestCACFARDetectsPlantedTarget(t *testing.T) {
	pulse, _ := Chirp(64, 0.05, 0.2)
	sig, err := AddEchoes(2048, pulse, []int{700, 1400}, []float64{1, 0.8}, 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope(MatchedFilter(sig, pulse), 8)
	dets, err := CACFAR(env, 8, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	found1, found2 := false, false
	for _, d := range dets {
		if d.Cell >= 700+55 && d.Cell <= 700+75 {
			found1 = true
		}
		if d.Cell >= 1400+55 && d.Cell <= 1400+75 {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Errorf("targets at 700/1400 not both detected: %v %v (dets %d)", found1, found2, len(dets))
	}
}

func TestCACFARNoTargetFewFalseAlarms(t *testing.T) {
	pulse, _ := Chirp(64, 0.05, 0.2)
	sig, err := AddEchoes(4096, pulse, nil, nil, 0.05, 13)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope(MatchedFilter(sig, pulse), 8)
	dets, err := CACFAR(env, 8, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) > 8 {
		t.Errorf("%d false alarms in pure noise, want few", len(dets))
	}
}

func TestCACFARValidation(t *testing.T) {
	if _, err := CACFAR(nil, -1, 4, 3); err == nil {
		t.Error("negative guard should fail")
	}
	if _, err := CACFAR(nil, 0, 0, 3); err == nil {
		t.Error("zero train should fail")
	}
	if _, err := CACFAR(nil, 0, 4, 1); err == nil {
		t.Error("factor <= 1 should fail")
	}
}

func TestAddEchoesValidation(t *testing.T) {
	pulse, _ := Chirp(8, 0.1, 0.2)
	if _, err := AddEchoes(100, pulse, []int{1}, nil, 0, 1); err == nil {
		t.Error("mismatched delays/gains should fail")
	}
	if _, err := AddEchoes(100, pulse, []int{200}, []float64{1}, 0, 1); err == nil {
		t.Error("out-of-range delay should fail")
	}
}

func TestPackUnpackF64(t *testing.T) {
	x := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	got, err := UnpackF64(PackF64(x))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, x) {
		t.Errorf("round trip = %v", got)
	}
	if _, err := UnpackF64([]byte{1, 2, 3}); err == nil {
		t.Error("bad length should fail")
	}
}

func TestEnvelopeMonotoneWindow(t *testing.T) {
	x := []float64{0, -3, 1, 0, 0, 2, 0}
	e1 := Envelope(x, 1)
	e3 := Envelope(x, 3)
	for i := range x {
		if e1[i] != math.Abs(x[i]) {
			t.Fatalf("window-1 envelope must be |x|")
		}
		if e3[i] < e1[i] {
			t.Fatalf("wider window cannot shrink the envelope")
		}
	}
	if got := Envelope(x, 0); got[1] != 3 {
		t.Error("window < 1 should clamp to 1")
	}
}

func TestPeakCellEmpty(t *testing.T) {
	if peakCell(nil) != -1 {
		t.Error("empty input should return -1")
	}
}

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// peakCell returns the index of the largest sample.
func peakCell(x []float64) int {
	best, bi := math.Inf(-1), -1
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

package rtc

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestPJDValidate(t *testing.T) {
	cases := []struct {
		name string
		m    PJD
		ok   bool
	}{
		{"valid", PJD{Period: 30, Jitter: 2, MinDist: 30}, true},
		{"zero jitter", PJD{Period: 10}, true},
		{"zero period", PJD{Period: 0}, false},
		{"negative period", PJD{Period: -1}, false},
		{"negative jitter", PJD{Period: 10, Jitter: -1}, false},
		{"negative mindist", PJD{Period: 10, MinDist: -5}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.m.Validate(); (err == nil) != c.ok {
				t.Errorf("Validate(%v) = %v, want ok=%v", c.m, err, c.ok)
			}
		})
	}
}

func TestPJDString(t *testing.T) {
	got := PJD{Period: 30, Jitter: 5, MinDist: 30}.String()
	if got != "<30,5,30>" {
		t.Errorf("String() = %q, want <30,5,30>", got)
	}
}

func TestPJDUpperStrictlyPeriodic(t *testing.T) {
	// A strictly periodic stream with period 10: at most ceil(Δ/10) events.
	u := PJD{Period: 10}.Upper()
	cases := []struct {
		delta Time
		want  Count
	}{
		{0, 0}, {-5, 0}, {1, 1}, {10, 1}, {11, 2}, {20, 2}, {21, 3}, {100, 10},
	}
	for _, c := range cases {
		if got := u.Eval(c.delta); got != c.want {
			t.Errorf("upper(%d) = %d, want %d", c.delta, got, c.want)
		}
	}
}

func TestPJDLowerStrictlyPeriodic(t *testing.T) {
	l := PJD{Period: 10}.Lower()
	cases := []struct {
		delta Time
		want  Count
	}{
		{0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {100, 10},
	}
	for _, c := range cases {
		if got := l.Eval(c.delta); got != c.want {
			t.Errorf("lower(%d) = %d, want %d", c.delta, got, c.want)
		}
	}
}

func TestPJDJitterWidensEnvelope(t *testing.T) {
	// With jitter j, a window can see extra early events and miss late ones.
	m := PJD{Period: 10, Jitter: 15}
	u, l := m.Upper(), m.Lower()
	if got := u.Eval(1); got != 2 {
		t.Errorf("upper(1) with j=15 = %d, want 2 (burst)", got)
	}
	if got := l.Eval(24); got != 0 {
		t.Errorf("lower(24) with j=15 = %d, want 0", got)
	}
	if got := l.Eval(25); got != 1 {
		t.Errorf("lower(25) with j=15 = %d, want 1", got)
	}
}

func TestPJDMinDistCapsBurst(t *testing.T) {
	// Jitter allows a burst of 3 in a tiny window, but d=4 spaces them out.
	m := PJD{Period: 10, Jitter: 25, MinDist: 4}
	u := m.Upper()
	if got := u.Eval(1); got != 1 {
		t.Errorf("upper(1) = %d, want 1 (min distance caps burst)", got)
	}
	if got := u.Eval(5); got != 2 {
		t.Errorf("upper(5) = %d, want 2", got)
	}
	if got := u.Eval(9); got != 3 {
		t.Errorf("upper(9) = %d, want 3", got)
	}
}

func TestPJDZeroAtZero(t *testing.T) {
	m := PJD{Period: 7, Jitter: 3, MinDist: 2}
	if m.Upper().Eval(0) != 0 || m.Lower().Eval(0) != 0 {
		t.Error("arrival curves must be 0 at Δ=0")
	}
}

// Property: upper and lower curves are wide-sense increasing and the
// upper dominates the lower at every Δ.
func TestPJDCurveProperties(t *testing.T) {
	prop := func(period uint16, jitter uint16, minDist uint16, d1, d2 uint16) bool {
		p := Time(period%500) + 1
		m := PJD{Period: p, Jitter: Time(jitter % 1000), MinDist: Time(minDist) % (p + 1)}
		u, l := m.Upper(), m.Lower()
		a, b := Time(d1), Time(d2)
		if a > b {
			a, b = b, a
		}
		return u.Eval(a) <= u.Eval(b) && l.Eval(a) <= l.Eval(b) &&
			u.Eval(a) >= l.Eval(a) && u.Eval(b) >= l.Eval(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a concrete periodic-with-jitter trace always respects the
// curves of its own model. Event i occurs at i*p + phase(i), phase in
// [0, j] — the standard PJD trace family.
func TestPJDTraceWithinEnvelope(t *testing.T) {
	prop := func(period uint8, jitter uint8, seed int64) bool {
		p := Time(period%50) + 2
		j := Time(jitter % 20)
		m := PJD{Period: p, Jitter: j}
		u, l := m.Upper(), m.Lower()
		const n = 64
		ts := make([]Time, n)
		state := seed
		for i := range ts {
			state = state*6364136223846793005 + 1442695040888963407
			ph := Time(0)
			if j > 0 {
				r := (state >> 33) % (j + 1)
				if r < 0 {
					r += j + 1
				}
				ph = r
			}
			ts[i] = Time(i)*p + ph
		}
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		// Upper: events a..b fit in a window of length ts[b]-ts[a]+1.
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				delta := ts[b] - ts[a] + 1
				if Count(b-a+1) > u.Eval(delta) {
					return false
				}
			}
		}
		// Lower: any window [s, s+Δ) inside the trace span must contain at
		// least l(Δ) events; sample placements at s = ts[a] and s = ts[a]+1.
		span := ts[n-1]
		for a := 0; a < n; a++ {
			for _, s := range []Time{ts[a], ts[a] + 1} {
				for _, delta := range []Time{p, 2 * p, 5*p + j, 10 * p} {
					if s+delta > span {
						continue
					}
					var cnt Count
					for k := 0; k < n; k++ {
						if ts[k] >= s && ts[k] < s+delta {
							cnt++
						}
					}
					if cnt < l.Eval(delta) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCeilFloorDiv(t *testing.T) {
	cases := []struct {
		a, b, ceil, floor int64
	}{
		{7, 2, 4, 3}, {8, 2, 4, 4}, {-7, 2, -3, -4}, {0, 5, 0, 0}, {-8, 2, -4, -4},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
		if got := floorDiv(c.a, c.b); got != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
	}
}

func TestHorizonPositive(t *testing.T) {
	if h := Horizon(); h <= 0 {
		t.Errorf("Horizon() with no models = %d, want positive", h)
	}
	m := PJD{Period: 30000, Jitter: 5000}
	if h := Horizon(m, m); h < 2*m.SuggestedHorizon() {
		t.Errorf("Horizon(m,m) = %d, want >= %d", h, 2*m.SuggestedHorizon())
	}
}

package exp

import (
	"strings"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
)

// TestCheckDetection pins the shared detection verdict: the replica's
// first conviction is the detection, a first conviction before the
// injection is a false positive that leaves the run undetected, and
// stop modes are held to stopBound.
func TestCheckDetection(t *testing.T) {
	bounds := MKBounds{SelBoundUs: 400, RepBoundUs: 200}
	conv := func(replica int, at des.Time) ft.Fault { return ft.Fault{Replica: replica, At: at} }
	cases := []struct {
		name       string
		faults     []ft.Fault
		mode       fault.Mode
		convicted  bool
		latency    des.Time
		bound      des.Time
		slackPct   float64
		violations []string
	}{
		{"within bound", []ft.Fault{conv(2, 1100), conv(1, 1150)}, fault.StopAll,
			true, 150, 200, 25, nil},
		{"past bound", []ft.Fault{conv(1, 1300)}, fault.StopConsuming,
			true, 300, 200, -50, []string{"exceeds analytic bound 200us (stop-consuming, m=2)"}},
		{"stop-producing uses the selector bound", []ft.Fault{conv(1, 1300)}, fault.StopProducing,
			true, 300, 400, 25, nil},
		{"unbounded mode", []ft.Fault{conv(1, 1300)}, fault.Degrade,
			true, 300, 0, -1, nil},
		{"never convicted", []ft.Fault{conv(2, 1100)}, fault.StopAll,
			false, 0, 200, -1, []string{"stop-all fault injected at 1000us was never detected"}},
		{"convicted before the injection", []ft.Fault{conv(1, 900), conv(1, 1100)}, fault.StopAll,
			false, 0, 200, -1, []string{"R1 convicted at 900us, before its stop-all fault was injected at 1000us"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := checkDetection(&ft.System{Faults: c.faults}, 1, 1000, c.mode, bounds, 2)
			if d.convicted != c.convicted || d.latency != c.latency || d.bound != c.bound || d.slackPct != c.slackPct {
				t.Fatalf("got convicted=%v latency=%d bound=%d slack=%v, want %v %d %d %v",
					d.convicted, d.latency, d.bound, d.slackPct, c.convicted, c.latency, c.bound, c.slackPct)
			}
			if len(d.violations) != len(c.violations) {
				t.Fatalf("violations %q, want %d", d.violations, len(c.violations))
			}
			for i, want := range c.violations {
				if !strings.Contains(d.violations[i], want) {
					t.Errorf("violation %q does not contain %q", d.violations[i], want)
				}
			}
		})
	}
}

func TestStreamDiff(t *testing.T) {
	golden := []tokenID{{1, 0xa}, {2, 0xb}}
	if d := streamDiff([]tokenID{{1, 0xa}, {2, 0xb}}, golden); d != "" {
		t.Errorf("identical streams: %q", d)
	}
	if d := streamDiff(golden[:1], golden); d != "stream has 1 tokens, golden has 2" {
		t.Errorf("short stream: %q", d)
	}
	if d := streamDiff([]tokenID{{1, 0xa}, {2, 0xc}}, golden); d != "token 1 = (seq 2, hash c), golden (seq 2, hash b)" {
		t.Errorf("corrupt token: %q", d)
	}
}

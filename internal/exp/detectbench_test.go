package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"ftpn/internal/ft"
)

// TestCampaignMK01MatchesBinary: the (0,1) weakly-hard policy and the
// explicit binary policy must be *bit-identical* to the default inline
// path on the randomized campaign — same JSON (policy label aside) at
// every parallelism level. This is the property check that the
// sampling layer is a pure refactoring of the paper's first-violation
// conviction.
func TestCampaignMK01MatchesBinary(t *testing.T) {
	specs := []ft.PolicySpec{
		{}, // inline default
		{Kind: ft.PolicyBinary},
		{Kind: ft.PolicyMK, M: 0, K: 1},
	}
	for _, par := range []int{1, 4} {
		var ref []byte
		for i, sp := range specs {
			res, err := Campaign(CampaignConfig{Runs: 16, Seed: 11, Policy: sp}, WithParallelism(par))
			if err != nil {
				t.Fatalf("Campaign(%v, parallel=%d): %v", sp, par, err)
			}
			res.Policy = "" // the label is the only allowed difference
			buf, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("json.Marshal: %v", err)
			}
			if i == 0 {
				ref = buf
				continue
			}
			if !bytes.Equal(ref, buf) {
				t.Fatalf("policy %v differs from the inline path at parallel=%d:\n-- inline:\n%s\n-- %v:\n%s",
					sp, par, ref, sp, buf)
			}
		}
	}
}

// TestMKDetectionBoundsDegenerate: a positive violation budget must
// never shrink a detection bound below the binary (m = 0) one.
func TestMKDetectionBoundsDegenerate(t *testing.T) {
	for _, name := range []string{"adpcm", "radar", "mjpeg", "h264"} {
		app, err := AppByName(name, false, 100)
		if err != nil {
			t.Fatalf("AppByName(%s): %v", name, err)
		}
		s, err := SizingFor(app)
		if err != nil {
			t.Fatalf("SizingFor(%s): %v", name, err)
		}
		prev := s.MKBounds
		for _, m := range []int{1, 4, 9} {
			bm, err := MKDetectionBounds(app, s, m)
			if err != nil {
				t.Fatalf("MKDetectionBounds(%s, %d): %v", name, m, err)
			}
			if bm.SelBoundUs < prev.SelBoundUs || bm.RepBoundUs < prev.RepBoundUs {
				t.Errorf("%s: bounds shrank from m=%d: %+v -> %+v", name, m, prev, bm)
			}
			prev = bm
		}
	}
}

// TestMKBudgetForShape: the derived budget is a valid (m,k) policy with
// a window that can actually absorb the budget.
func TestMKBudgetForShape(t *testing.T) {
	for _, name := range []string{"adpcm", "radar", "mjpeg", "h264"} {
		app, err := AppByName(name, false, 100)
		if err != nil {
			t.Fatalf("AppByName(%s): %v", name, err)
		}
		sp, err := MKBudgetFor(app, glitchFor(app))
		if err != nil {
			t.Fatalf("MKBudgetFor(%s): %v", name, err)
		}
		if sp.Kind != ft.PolicyMK || sp.M < 1 || sp.K <= sp.M {
			t.Errorf("%s: malformed budget %+v", name, sp)
		}
		if _, err := ft.NewPolicy(sp); err != nil {
			t.Errorf("%s: budget %v does not instantiate: %v", name, sp, err)
		}
	}
}

// TestTransientGlitchRegression is the (m,k) false-conviction
// regression: hundreds of seeded runs inject a transient Degrade
// glitch sized within the app's (m,k) budget. Under the budgeted
// policy there must be zero convictions and every consumer stream must
// be token-identical to the fault-free golden stream; the *same* runs
// under the binary policy must all convict — the tradeoff the policy
// layer exists to buy.
func TestTransientGlitchRegression(t *testing.T) {
	runs := 500
	if testing.Short() {
		runs = 40
	}
	goldens, err := buildGoldens(8)
	if err != nil {
		t.Fatalf("buildGoldens: %v", err)
	}
	g := goldens[goldenKey{"adpcm", false}]
	mk, err := MKBudgetFor(g.app, glitchFor(g.app))
	if err != nil {
		t.Fatalf("MKBudgetFor: %v", err)
	}
	const seed = 23
	type outcome struct{ mk, bin detectRun }
	results, err := runIndexed(8, runs, func(i int) (outcome, error) {
		var o outcome
		var err error
		if o.mk, err = detectOne(g, mk, "glitch", true, seed, i); err != nil {
			return o, fmt.Errorf("mk run %d: %w", i, err)
		}
		if o.bin, err = detectOne(g, ft.PolicySpec{Kind: ft.PolicyBinary}, "glitch", true, seed, i); err != nil {
			return o, fmt.Errorf("binary run %d: %w", i, err)
		}
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range results {
		if o.mk.convicted || o.mk.falseConv {
			t.Errorf("run %d: %v falsely convicted a budgeted transient", i, mk)
		}
		if !o.mk.golden {
			t.Errorf("run %d: consumer stream diverged from golden under %v", i, mk)
		}
		if !o.bin.convicted {
			t.Errorf("run %d: binary policy failed to convict the same transient", i)
		}
	}
}

// TestDetectBenchSmoke pins the qualitative detection matrix on a
// small bench: binary trips on forgivable glitches and silently misses
// corruption; the (m,k) budget forgives every transient yet still
// catches every permanent fault within the analytic bound; the value
// cross-check convicts corruption while masking keeps the stream
// golden.
func TestDetectBenchSmoke(t *testing.T) {
	runs := 2
	if testing.Short() {
		runs = 1
	}
	rep, err := DetectBench(runs, 5, WithParallelism(8))
	if err != nil {
		t.Fatalf("DetectBench: %v", err)
	}
	if want := 4 * 3 * len(detectClasses); len(rep.Cells) != want {
		t.Fatalf("bench produced %d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		id := fmt.Sprintf("%s/%s/%s", c.App, c.Policy, c.Fault)
		binary := c.Policy == "binary"
		value := c.Policy[len(c.Policy)-len("+value"):] == "+value"
		switch c.Fault {
		case "stop":
			if c.Convicted != c.Runs || c.Missed != 0 || c.FalseConvictions != 0 {
				t.Errorf("%s: stop not reliably detected: %+v", id, c)
			}
			if c.AnalyticBoundUs <= 0 || c.MaxLatencyUs > c.AnalyticBoundUs {
				t.Errorf("%s: latency %dus exceeds analytic bound %dus", id, c.MaxLatencyUs, c.AnalyticBoundUs)
			}
		case "drift", "drop":
			if c.Convicted != c.Runs || c.FalseConvictions != 0 {
				t.Errorf("%s: permanent gray fault not reliably detected: %+v", id, c)
			}
		case "glitch":
			if binary {
				if c.FalseConvictions != c.Runs {
					t.Errorf("%s: binary should convict every budgeted transient: %+v", id, c)
				}
			} else if c.Convicted != 0 || c.FalseConvictions != 0 {
				t.Errorf("%s: budgeted policy falsely convicted a transient: %+v", id, c)
			}
			if c.GoldenStreams != c.Runs {
				t.Errorf("%s: transient broke the golden stream: %+v", id, c)
			}
		case "burst":
			if !binary && (c.Convicted != 0 || c.FalseConvictions != 0) {
				t.Errorf("%s: budgeted policy falsely convicted a burst: %+v", id, c)
			}
			if c.GoldenStreams != c.Runs {
				t.Errorf("%s: burst broke the golden stream: %+v", id, c)
			}
		case "corrupt":
			if value {
				if c.Convicted != c.Runs || c.ValueConvictions != c.Runs {
					t.Errorf("%s: value cross-check missed corruption: %+v", id, c)
				}
				if c.GoldenStreams != c.Runs {
					t.Errorf("%s: value path failed to mask corruption: %+v", id, c)
				}
			} else {
				if c.Convicted != 0 || c.Missed != c.Runs {
					t.Errorf("%s: timing-only policy should silently miss corruption: %+v", id, c)
				}
			}
		}
	}
}

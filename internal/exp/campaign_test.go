package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ftpn/internal/ft"
)

// TestCampaignInvariantsHold runs a small slice of the randomized
// campaign and requires every machine-checked invariant to hold: exact
// fault masking, zero false positives, latency within the analytic
// bound, recovery after detection and re-detection of the second fault.
func TestCampaignInvariantsHold(t *testing.T) {
	res, err := Campaign(CampaignConfig{Runs: 40, Seed: 1})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations:\n%s", res.Violations, res.String())
	}
	if res.Detected != res.Runs {
		t.Errorf("detected %d of %d injected faults", res.Detected, res.Runs)
	}
	if res.Recovered != res.Detected {
		t.Errorf("recovered %d of %d detections", res.Recovered, res.Detected)
	}
	if res.SecondInjected == 0 {
		t.Errorf("no run had room for a second fault; campaign never exercised restored redundancy")
	}
	if res.SecondDetected != res.SecondInjected {
		t.Errorf("second fault detected in %d of %d runs", res.SecondDetected, res.SecondInjected)
	}
	if res.MarginRuns == 0 || res.MinMarginPct < 0 {
		t.Errorf("no stop-mode run produced a latency margin (MarginRuns=%d)", res.MarginRuns)
	}
}

// TestCampaignDeterministicAcrossParallelism requires the full campaign
// result — JSON bytes included — to be bit-identical whether runs
// execute sequentially or on a worker pool.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	cfg := CampaignConfig{Runs: 24, Seed: 7}
	var reports [2][]byte
	for i, par := range []int{1, 8} {
		res, err := Campaign(cfg, WithParallelism(par))
		if err != nil {
			t.Fatalf("Campaign(parallel=%d): %v", par, err)
		}
		if reports[i], err = json.Marshal(res); err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("campaign result differs across parallelism levels:\n-- parallel=1:\n%s\n-- parallel=8:\n%s",
			reports[0], reports[1])
	}
}

// TestScenarioForDeterministic pins the scenario generator: the same
// (seed, index) must always yield the same scenario, and different
// indices must actually vary the draw.
func TestScenarioForDeterministic(t *testing.T) {
	a, b := ScenarioFor(42, 3), ScenarioFor(42, 3)
	if a != b {
		t.Fatalf("ScenarioFor(42, 3) not deterministic: %+v vs %+v", a, b)
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		sc := ScenarioFor(1, i)
		if sc.Index != i {
			t.Fatalf("scenario %d has Index %d", i, sc.Index)
		}
		if sc.InjectUs <= 0 || sc.DelayUs <= 0 || sc.SettleUs <= 0 {
			t.Fatalf("scenario %d has non-positive times: %+v", i, sc)
		}
		if sc.Mode == "degrade" && sc.ExtraUs <= 0 {
			t.Fatalf("degrade scenario %d has no extra delay: %+v", i, sc)
		}
		seen[sc.App+"/"+sc.Mode] = true
	}
	if len(seen) < 8 {
		t.Errorf("only %d distinct app/mode cells in 50 draws: %v", len(seen), seen)
	}
}

// TestCampaignSummaryMentionsViolations keeps the human summary honest:
// a clean result must report zero violations and the detection counts.
func TestCampaignSummaryMentionsViolations(t *testing.T) {
	res, err := Campaign(CampaignConfig{Runs: 6, Seed: 3})
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	s := res.String()
	if !strings.Contains(s, "invariant violations: 0") {
		t.Errorf("summary missing violation count:\n%s", s)
	}
	if !strings.Contains(s, "detected 6/6") {
		t.Errorf("summary missing detection count:\n%s", s)
	}
}

// TestCampaignRunEarlyConvictionIsNotADetection gives the run a
// divergence threshold far below the analytic one, so the target is
// falsely convicted and recovered before its fault is injected. The
// conviction that follows the injection must not count: the run stays
// undetected, with no detection time and no latency margin for the
// summary, and a violation names the pre-injection conviction.
func TestCampaignRunEarlyConvictionIsNotADetection(t *testing.T) {
	app := ADPCMApp(false, 120)
	sizing, err := SizingFor(app)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := newGolden(app, sizing, ft.PolicySpec{})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := MKDetectionBounds(app, sizing, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight := sizing
	tight.D = 1
	sc := Scenario{App: "adpcm", Tokens: 120, Replica: 1, Mode: "stop-all", InjectUs: 24 * app.PeriodUs,
		DelayUs: 5 * app.PeriodUs, SettleUs: 20 * app.PeriodUs, SecondMode: "stop-all"}
	run, err := campaignOne(sc, &golden{app: app, stream: g.stream, sizing: tight}, ft.PolicySpec{}, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if run.DetectedUs != -1 || run.LatencyMarginPct != -1 {
		t.Errorf("detected at %dus with margin %v%%, want -1 for both", run.DetectedUs, run.LatencyMarginPct)
	}
	early := false
	for _, v := range run.Violations {
		early = early || strings.Contains(v, "before its stop-all fault was injected at 151200us")
	}
	if !early {
		t.Errorf("no pre-injection conviction among violations %q", run.Violations)
	}
}

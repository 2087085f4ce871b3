package exp

// Randomized fault-injection campaign with machine-checked invariants.
// Each run draws a scenario — application, jitter tier, fault mode,
// faulty replica, injection time, recovery delay, settle time and an
// optional second fault — from a seeded PRNG, executes the duplicated
// system with a recovery manager attached, and checks the framework's
// end-to-end guarantees against the run's golden fault-free stream:
//
//  1. the consumer's output is token-identical (Seq and payload hash)
//     to the fault-free run — fault masking is exact;
//  2. a replica that was never injected is never convicted (zero false
//     positives), and a recovered replica is not re-convicted between
//     its recovery and the second injection;
//  3. for stop-mode faults the first detection latency is within the
//     analytic rtc bound of the detectors armed for that mode, derived
//     for the policy's violation budget m (MKDetectionBounds);
//  4. detection triggers exactly one recovery per injected replica and
//     re-integration completes on every channel;
//  5. a second fault injected after recovery is detected again —
//     redundancy really was restored;
//  6. the healthy replica is never back-pressured (it writes the full
//     workload; Lemma 1), and every channel's counter identities hold
//     at the end of the run.
//
// Runs execute on the worker pool (WithParallelism) and aggregate in
// run-index order, so campaign output is bit-identical at any
// parallelism level.

import (
	"fmt"
	"sort"
	"strings"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/recover"
)

// campaignApps are the workloads the campaign sweeps, with per-app
// workload lengths chosen so a run stays cheap while leaving room for
// inject -> detect -> recover -> settle -> second fault -> detect.
var campaignApps = []struct {
	name   string
	tokens int64
	weight int
}{
	{"adpcm", 220, 35},
	{"radar", 170, 25},
	{"mjpeg", 150, 20},
	{"h264", 150, 20},
}

// Scenario is one randomized campaign run; it is fully determined by
// (seed, index), so a campaign can be replayed run by run.
type Scenario struct {
	Index       int      `json:"index"`
	App         string   `json:"app"`
	MinJitter   bool     `json:"min_jitter"`
	Tokens      int64    `json:"tokens"`
	Replica     int      `json:"replica"` // first-fault target (1-based)
	Mode        string   `json:"mode"`
	ExtraUs     des.Time `json:"extra_us,omitempty"` // degrade only
	InjectUs    des.Time `json:"inject_us"`
	DelayUs     des.Time `json:"delay_us"`  // detection -> repair
	SettleUs    des.Time `json:"settle_us"` // recovery -> second fault
	SecondMode  string   `json:"second_mode"`
	SecondOther bool     `json:"second_other"` // second fault hits the other replica
}

// modeByName resolves a scenario mode string via the canonical registry
// in internal/fault; campaign scenarios only ever draw valid names.
func modeByName(name string) fault.Mode {
	m, ok := fault.ModeByName(name)
	if !ok {
		panic("exp: unknown fault mode " + name)
	}
	return m
}

// ScenarioFor draws scenario idx of a campaign deterministically.
func ScenarioFor(seed int64, idx int) Scenario {
	rng := kpn.NewRand(seed*0x5851F42D4C957F2D + int64(idx) + 1)
	var sc Scenario
	sc.Index = idx

	total := 0
	for _, a := range campaignApps {
		total += a.weight
	}
	pick := rng.Intn(total)
	for _, a := range campaignApps {
		if pick < a.weight {
			sc.App, sc.Tokens = a.name, a.tokens
			break
		}
		pick -= a.weight
	}

	sc.MinJitter = rng.Intn(2) == 0
	sc.Replica = 1 + rng.Intn(2)
	modes := []string{"stop-all", "stop-consuming", "stop-producing", "degrade"}
	sc.Mode = modes[rng.Intn(len(modes))]
	// Period-relative times are resolved against the app's period below;
	// draw the multipliers here so the scenario is self-describing.
	app, err := AppByName(sc.App, sc.MinJitter, sc.Tokens)
	if err != nil {
		panic(err) // campaignApps names are static
	}
	p := app.PeriodUs
	if sc.Mode == "degrade" {
		sc.ExtraUs = des.Time(2+rng.Intn(4)) * p
	}
	// Inject in the first third (leaves room for the recovery arc), with
	// sub-period phase sweep.
	lo, hi := sc.Tokens/6, sc.Tokens/3
	sc.InjectUs = des.Time(lo)*p + des.Time(rng.Int63n(int64(hi-lo)*int64(p)))
	sc.DelayUs = des.Time(3+rng.Intn(13)) * p
	sc.SettleUs = des.Time(20+rng.Intn(31)) * p
	secondModes := []string{"stop-all", "stop-consuming", "stop-producing"}
	sc.SecondMode = secondModes[rng.Intn(len(secondModes))]
	sc.SecondOther = rng.Intn(4) == 0
	return sc
}

// goldenKey indexes the golden cache.
type goldenKey struct {
	app       string
	minJitter bool
}

// buildGoldens runs the fault-free duplicated system once per (app,
// tier) cell and records the consumer stream and sizing.
func buildGoldens(workers int) (map[goldenKey]*golden, error) {
	type cell struct {
		key    goldenKey
		tokens int64
	}
	var cells []cell
	for _, a := range campaignApps {
		for _, mj := range []bool{false, true} {
			cells = append(cells, cell{goldenKey{a.name, mj}, a.tokens})
		}
	}
	results, err := runIndexed(workers, len(cells), func(i int) (*golden, error) {
		c := cells[i]
		app, err := AppByName(c.key.app, c.key.minJitter, c.tokens)
		if err != nil {
			return nil, err
		}
		sizing, err := SizingFor(app)
		if err != nil {
			return nil, err
		}
		g, sys, err := newGolden(app, sizing, ft.PolicySpec{})
		if err != nil {
			return nil, err
		}
		if len(sys.Faults) != 0 {
			return nil, fmt.Errorf("exp: golden run of %s convicted a replica: %v", c.key.app, sys.Faults)
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[goldenKey]*golden, len(cells))
	for i, c := range cells {
		out[c.key] = results[i]
	}
	return out, nil
}

// CampaignRun is the machine-checked outcome of one scenario.
type CampaignRun struct {
	Scenario   Scenario `json:"scenario"`
	Violations []string `json:"violations,omitempty"`

	DetectedUs       int64 `json:"detected_us"`        // first conviction of the target (-1: none)
	RecoveredUs      int64 `json:"recovered_us"`       // -1: no recovery
	SecondInjectUs   int64 `json:"second_inject_us"`   // -1: skipped (no room before stream end)
	SecondDetectedUs int64 `json:"second_detected_us"` // -1: n/a or undetected

	// LatencyMarginPct is (bound-latency)/bound for stop-mode first
	// faults (-1 when no bound applies).
	LatencyMarginPct float64 `json:"latency_margin_pct"`
}

// campaignOne executes one scenario against its golden reference;
// bounds are the cell's analytic detection bounds under pol.
func campaignOne(sc Scenario, g *golden, pol ft.PolicySpec, bounds MKBounds) (CampaignRun, error) {
	res := CampaignRun{Scenario: sc, DetectedUs: -1, RecoveredUs: -1,
		SecondInjectUs: -1, SecondDetectedUs: -1, LatencyMarginPct: -1}
	violate := violator(&res.Violations)

	// Reuse the cell's App: all runs share its payload memo, so the
	// deterministic codec work is computed once per cell, not per run.
	app := g.app
	target2 := sc.Replica
	if sc.SecondOther {
		target2 = 3 - sc.Replica
	}
	streamEndUs := des.Time(sc.Tokens) * app.PeriodUs
	var inject2At des.Time = -1
	var mgr *recover.Manager
	var stream []tokenID
	sys, err := runDuplicated(app, g.buildConfig(pol), recordStream(&stream), 0, func(sys *ft.System) error {
		mgr = recover.NewManager(sys, recover.Plan{Delay: sc.DelayUs, MaxRecoveries: 1})
		// Schedule the second fault off the recovery event so it lands
		// a settle time after re-integration, wherever that ends up;
		// skip it when too little stream remains for another detection
		// arc.
		mgr.OnRecovered = func(ev recover.Event) {
			if ev.Replica != sc.Replica || inject2At >= 0 {
				return // only the first fault's recovery arms the second fault
			}
			at := ev.RecoveredAt + sc.SettleUs
			if at > streamEndUs-25*app.PeriodUs {
				return
			}
			inject2At = at
			sys.InjectFault(target2, at, modeByName(sc.SecondMode), 0)
		}
		sys.InjectFault(sc.Replica, sc.InjectUs, modeByName(sc.Mode), sc.ExtraUs)
		return nil
	})
	if err != nil {
		return res, err
	}

	// --- Invariant 1: exact fault masking. ---
	if d := streamDiff(stream, g.stream); d != "" {
		violate("consumer %s", d)
	}

	// Recovery bookkeeping for the windows below.
	recoveredAt := des.Time(-1)
	for _, ev := range mgr.Events() {
		if ev.Replica == sc.Replica && recoveredAt < 0 {
			recoveredAt = ev.RecoveredAt
			res.RecoveredUs = int64(ev.RecoveredAt)
			if !ev.Complete {
				violate("re-integration of R%d incomplete on some channel", sc.Replica)
			}
		}
	}
	res.SecondInjectUs = int64(inject2At)

	// --- Invariant 2: no false positives, no spurious re-conviction. ---
	healthy := 3 - sc.Replica
	for _, f := range sys.Faults {
		switch f.Replica {
		case sc.Replica:
			if recoveredAt >= 0 && f.At > recoveredAt && (inject2At < 0 || !(!sc.SecondOther && f.At >= inject2At)) {
				violate("R%d re-convicted at %dus inside the recovered window (%s on %s)",
					f.Replica, f.At, f.Reason, f.Channel)
			}
		case healthy:
			if !sc.SecondOther || inject2At < 0 || f.At < inject2At {
				violate("healthy replica R%d convicted at %dus (%s on %s)",
					f.Replica, f.At, f.Reason, f.Channel)
			}
		}
	}

	// --- Invariant 3: detection, within the analytic bound for stop modes. ---
	det := checkDetection(sys, sc.Replica, sc.InjectUs, modeByName(sc.Mode), bounds, policyM(pol))
	res.Violations = append(res.Violations, det.violations...)
	if det.convicted {
		res.DetectedUs = int64(det.first.At)
	}
	res.LatencyMarginPct = det.slackPct

	// --- Invariant 4: detection triggered exactly one recovery. ---
	if res.DetectedUs >= 0 && recoveredAt < 0 {
		violate("detected fault was never recovered")
	}
	if n := len(mgr.Events()); n > 2 || (!sc.SecondOther && n > 1) {
		violate("%d recoveries, budget allows at most one per replica", n)
	}

	// --- Invariant 5: the second fault is detected after recovery. ---
	if inject2At >= 0 {
		for _, f := range sys.Faults {
			if f.Replica == target2 && f.At >= inject2At {
				res.SecondDetectedUs = int64(f.At)
				break
			}
		}
		if res.SecondDetectedUs < 0 {
			violate("second fault on R%d at %dus was not detected (redundancy not restored)",
				target2, inject2At)
		}
	}

	// --- Invariant 6: Lemma 1 and the counter identities. ---
	if !sc.SecondOther {
		if w := sys.Selectors[app.OutChan].Writes(healthy); w != sc.Tokens {
			violate("healthy replica wrote %d of %d tokens (back-pressured)", w, sc.Tokens)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		violate("counter invariants: %v", err)
	}
	return res, nil
}

// maxViolatingRuns caps how many violating runs a campaign, topobench
// or latbench report carries verbatim.
const maxViolatingRuns = 20

// CampaignConfig parameterizes a campaign.
type CampaignConfig struct {
	Runs int
	Seed int64
	// Policy selects the detection policy armed on every channel. The
	// zero value keeps the inline first-violation path and produces
	// byte-identical results to campaigns that predate the policy layer.
	// With Policy.Value set, the selector additionally cross-checks
	// every write against the cell's golden stream.
	Policy ft.PolicySpec
}

// CampaignResult aggregates a campaign in run-index order; it is
// bit-identical at any parallelism level.
type CampaignResult struct {
	Runs int   `json:"runs"`
	Seed int64 `json:"seed"`
	// Policy labels the detection policy the campaign armed; omitted
	// for the default inline path so legacy reports compare bit-equal.
	Policy string `json:"policy,omitempty"`

	Violations    int           `json:"violations"`
	ViolatingRuns []CampaignRun `json:"violating_runs,omitempty"`

	RunsPerApp  map[string]int `json:"runs_per_app"`
	RunsPerMode map[string]int `json:"runs_per_mode"`

	Detected       int `json:"detected"`
	Recovered      int `json:"recovered"`
	SecondInjected int `json:"second_injected"`
	SecondDetected int `json:"second_detected"`
	SecondOnOther  int `json:"second_on_other"`

	// MarginHist buckets the stop-mode latency margin (bound-latency)/
	// bound into deciles [0-10%), [10-20%), ... [90-100%].
	MarginHist   [10]int `json:"latency_margin_hist"`
	MarginRuns   int     `json:"latency_margin_runs"`
	MinMarginPct float64 `json:"min_margin_pct"`
}

// Campaign runs the randomized fault-injection campaign.
func Campaign(cfg CampaignConfig, opts ...Option) (*CampaignResult, error) {
	if cfg.Runs < 1 {
		return nil, fmt.Errorf("exp: campaign needs at least one run")
	}
	rc := newRunConfig(opts)
	if _, err := ft.NewPolicy(cfg.Policy); err != nil {
		return nil, fmt.Errorf("exp: campaign policy: %w", err)
	}
	goldens, err := buildGoldens(rc.workers)
	if err != nil {
		return nil, err
	}
	bounds := make(map[goldenKey]MKBounds, len(goldens))
	for key, g := range goldens {
		if bounds[key], err = MKDetectionBounds(g.app, g.sizing, policyM(cfg.Policy)); err != nil {
			return nil, err
		}
	}
	runs, err := runIndexed(rc.workers, cfg.Runs, func(i int) (CampaignRun, error) {
		sc := ScenarioFor(cfg.Seed, i)
		key := goldenKey{sc.App, sc.MinJitter}
		return campaignOne(sc, goldens[key], cfg.Policy, bounds[key])
	})
	if err != nil {
		return nil, err
	}

	res := &CampaignResult{
		Runs: cfg.Runs, Seed: cfg.Seed,
		RunsPerApp:   map[string]int{},
		RunsPerMode:  map[string]int{},
		MinMarginPct: 100,
	}
	if !cfg.Policy.IsDefault() {
		res.Policy = cfg.Policy.String()
	}
	for _, r := range runs {
		res.RunsPerApp[r.Scenario.App]++
		res.RunsPerMode[r.Scenario.Mode]++
		if len(r.Violations) > 0 {
			res.Violations++
			if len(res.ViolatingRuns) < maxViolatingRuns {
				res.ViolatingRuns = append(res.ViolatingRuns, r)
			}
		}
		if r.DetectedUs >= 0 {
			res.Detected++
		}
		if r.RecoveredUs >= 0 {
			res.Recovered++
		}
		if r.SecondInjectUs >= 0 {
			res.SecondInjected++
			if r.Scenario.SecondOther {
				res.SecondOnOther++
			}
		}
		if r.SecondDetectedUs >= 0 {
			res.SecondDetected++
		}
		if r.LatencyMarginPct >= 0 {
			res.MarginRuns++
			b := int(r.LatencyMarginPct / 10)
			if b > 9 {
				b = 9
			}
			res.MarginHist[b]++
			if r.LatencyMarginPct < res.MinMarginPct {
				res.MinMarginPct = r.LatencyMarginPct
			}
		}
	}
	if res.MarginRuns == 0 {
		res.MinMarginPct = -1
	}
	return res, nil
}

// String renders a human summary.
func (r *CampaignResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-injection campaign — %d runs, seed %d\n", r.Runs, r.Seed)
	fmt.Fprintf(&b, "  invariant violations: %d\n", r.Violations)
	for _, v := range r.ViolatingRuns {
		fmt.Fprintf(&b, "    run %d (%s/%s): %s\n",
			v.Scenario.Index, v.Scenario.App, v.Scenario.Mode, strings.Join(v.Violations, "; "))
	}
	fmt.Fprintf(&b, "  detected %d/%d, recovered %d, second faults injected %d (on other replica %d), detected %d\n",
		r.Detected, r.Runs, r.Recovered, r.SecondInjected, r.SecondOnOther, r.SecondDetected)
	fmt.Fprintf(&b, "  runs per app:  %s\n", countLine(r.RunsPerApp))
	fmt.Fprintf(&b, "  runs per mode: %s\n", countLine(r.RunsPerMode))
	if r.MarginRuns > 0 {
		fmt.Fprintf(&b, "  stop-mode latency margin vs analytic bound (%d runs, min %.1f%%):\n", r.MarginRuns, r.MinMarginPct)
		for i, c := range r.MarginHist {
			if c > 0 {
				fmt.Fprintf(&b, "    [%3d%%,%3d%%): %d\n", 10*i, 10*(i+1), c)
			}
		}
	}
	return b.String()
}

// countLine renders a count map deterministically (sorted keys).
func countLine(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

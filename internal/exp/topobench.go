package exp

// topobench property-checks the paper's guarantees on generated
// topologies: every seeded topo.Generate spec, a network nobody
// hand-wired, goes through checkSpec (harness.go) — structure, zero
// false convictions under the analytic sizing, monotone (m,k) bounds,
// and Lemma 1 isolation, masking and bounded detection under the
// spec's fault script.
//
// On top of the generated sweep, the four paper apps round-trip
// through the DSL (topo.Describe -> Emit -> Parse -> Compile with the
// original behaviors) and must reproduce their direct golden streams
// exactly, with bit-equal sizing. Runs aggregate in index order
// (runIndexed), so the report is bit-identical at any -parallel level.

import (
	"fmt"
	"strings"

	"ftpn/internal/apps"
	"ftpn/internal/des"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/topo"
)

// topoApp adapts a compiled topo.Model into an App descriptor so the
// sizing analysis, detection bounds and build helpers apply unchanged.
func topoApp(model *topo.Model) App {
	return App{
		Name: model.Spec.Name,
		Build: func(sink apps.Sink) (*kpn.Network, error) {
			return model.Build(topo.Sink(sink))
		},
		Producer:      model.ProducerModel(),
		Consumer:      model.ConsumerModel(),
		InModel:       model.InModel,
		OutModel:      model.OutModel,
		InChan:        model.InChan,
		OutChan:       model.OutChan,
		Tokens:        model.Tokens(),
		PeriodUs:      model.PeriodUs(),
		InTokenBytes:  model.InTokenBytes,
		OutTokenBytes: model.OutTokenBytes,
		OutInit:       model.OutInit,
	}
}

// TopoRun is one generated network's machine-checked outcome.
type TopoRun struct {
	Seed     int64  `json:"seed"`
	Name     string `json:"name"`
	Shape    string `json:"shape"`
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	Procs    int    `json:"procs"`
	Chans    int    `json:"chans"`

	DetectedUs int64 `json:"detected_us"` // first conviction of the target (-1: none/faultfree)
	BoundUs    int64 `json:"bound_us"`    // analytic bound applied (0: none)
	// MarginPct is (bound-latency)/bound for bounded detections (-1
	// when no bound applies).
	MarginPct float64 `json:"margin_pct"`

	Violations []string `json:"violations,omitempty"`
}

// TopoReport is the full topobench result.
type TopoReport struct {
	GeneratedBy string `json:"generated_by"`
	Networks    int    `json:"networks"`
	Seed        int64  `json:"seed"`

	Shapes    map[string]int `json:"shapes"`
	Scenarios map[string]int `json:"scenarios"`
	Policies  map[string]int `json:"policies"`

	// Detected counts permanent-fault runs whose target was convicted;
	// BoundChecked those additionally checked against an analytic
	// latency bound, with the tightest observed margin.
	Detected     int     `json:"detected"`
	BoundChecked int     `json:"bound_checked"`
	MinMarginPct float64 `json:"min_margin_pct"`

	// MKChecked counts the networks whose (m,k) bounds were checked.
	MKChecked int `json:"mk_checked"`

	Violations    int       `json:"violations"`
	ViolatingRuns []TopoRun `json:"violating_runs,omitempty"` // first maxViolatingRuns

	Apps []TopoAppRoundTrip `json:"apps"`
}

// TopoAppRoundTrip is one paper app's DSL round-trip outcome.
type TopoAppRoundTrip struct {
	App             string   `json:"app"`
	SpecBytes       int      `json:"spec_bytes"`
	SizingEqual     bool     `json:"sizing_equal"`
	GoldenIdentical bool     `json:"golden_identical"`
	Violations      []string `json:"violations,omitempty"`
}

// topoRunResult carries per-run counters that don't belong in the
// serialized TopoRun.
type topoRunResult struct {
	run       TopoRun
	mkChecked bool
}

// topoOne property-checks one generated network.
func topoOne(seed int64) topoRunResult {
	spec := topo.Generate(seed)
	sc := checkSpec(spec, nil)
	run := TopoRun{
		Seed: seed, Name: spec.Name, Shape: spec.Shape, Scenario: spec.Scenario,
		Policy: sc.policy, Procs: len(spec.Procs), Chans: len(spec.Chans),
		DetectedUs: -1, MarginPct: -1, Violations: sc.violations,
	}
	if sc.det.convicted {
		run.DetectedUs = int64(sc.det.first.At)
		run.BoundUs = int64(sc.det.bound)
		run.MarginPct = sc.det.slackPct
	}
	return topoRunResult{run: run, mkChecked: sc.mkChecked}
}

// topoAppNames are the paper apps swept by the round-trip check.
var topoAppNames = []string{"mjpeg", "adpcm", "h264", "radar"}

// topoAppRoundTrip round-trips one paper app through the DSL and
// compares golden streams and sizing.
func topoAppRoundTrip(name string) (TopoAppRoundTrip, error) {
	rt := TopoAppRoundTrip{App: name}
	violate := violator(&rt.Violations)
	app, err := AppByName(name, false, 120)
	if err != nil {
		return rt, err
	}
	sizing, err := SizingFor(app)
	if err != nil {
		return rt, err
	}

	// Direct golden: the hand-wired network under the ft transform.
	direct, sys1, err := newGolden(app, sizing, ft.PolicySpec{})
	if err != nil {
		return rt, err
	}
	if len(sys1.Faults) != 0 {
		violate("direct golden run convicted: %v", sys1.Faults[0])
	}

	// DSL round-trip: describe a second build (it donates the behavior
	// factories and the sink), emit, parse, validate, compile, rebuild.
	var dsl []tokenID
	net2, err := app.Build(recordStream(&dsl))
	if err != nil {
		return rt, err
	}
	spec := topo.Describe(net2, topo.ExternTiming{
		Tokens:      app.Tokens,
		Producer:    app.Producer,
		Consumer:    app.Consumer,
		InJitterUs:  [2]des.Time{app.InModel(1).Jitter, app.InModel(2).Jitter},
		OutJitterUs: [2]des.Time{app.OutModel(1).Jitter, app.OutModel(2).Jitter},
	})
	data, err := topo.Emit(spec)
	if err != nil {
		violate("emit: %v", err)
		return rt, nil
	}
	rt.SpecBytes = len(data)
	spec2, err := topo.Parse(data)
	if err != nil {
		violate("re-parse: %v", err)
		return rt, nil
	}
	model, err := topo.Compile(spec2, topo.WithExtern(topo.Factories(net2)))
	if err != nil {
		violate("compile: %v", err)
		return rt, nil
	}
	dslApp := topoApp(model)
	sizing2, err := SizingFor(dslApp)
	if err != nil {
		violate("dsl sizing: %v", err)
		return rt, nil
	}
	rt.SizingEqual = sizing2 == sizing
	if !rt.SizingEqual {
		violate("dsl sizing %+v != direct sizing %+v", sizing2, sizing)
	}
	// No sink: net2's extern factories already record into dsl.
	sys3, err := runDuplicated(dslApp, sizing2.BuildConfig(dslApp), nil, 0, nil)
	if err != nil {
		violate("dsl build: %v", err)
		return rt, nil
	}
	if len(sys3.Faults) != 0 {
		violate("dsl golden run convicted: %v", sys3.Faults[0])
	}
	d := streamDiff(dsl, direct.stream)
	rt.GoldenIdentical = d == ""
	if !rt.GoldenIdentical {
		violate("dsl %s", d)
	}
	return rt, nil
}

// TopoBench generates and property-checks n networks from the seed and
// round-trips the paper apps; deterministic at any parallelism level.
func TopoBench(n int, seed int64, opts ...Option) (*TopoReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("exp: topobench needs at least one network")
	}
	rc := newRunConfig(opts)
	results, err := runIndexed(rc.workers, n, func(i int) (topoRunResult, error) {
		return topoOne(seed + int64(i)), nil
	})
	if err != nil {
		return nil, err
	}
	rep := &TopoReport{
		GeneratedBy:  "ftpnsim -exp topobench",
		Networks:     n,
		Seed:         seed,
		Shapes:       map[string]int{},
		Scenarios:    map[string]int{},
		Policies:     map[string]int{},
		MinMarginPct: -1,
	}
	for _, r := range results {
		run := r.run
		rep.Shapes[run.Shape]++
		rep.Scenarios[run.Scenario]++
		rep.Policies[run.Policy]++
		if run.DetectedUs >= 0 {
			rep.Detected++
		}
		if run.BoundUs > 0 {
			rep.BoundChecked++
			if rep.MinMarginPct < 0 || run.MarginPct < rep.MinMarginPct {
				rep.MinMarginPct = run.MarginPct
			}
		}
		if r.mkChecked {
			rep.MKChecked++
		}
		if len(run.Violations) > 0 {
			rep.Violations += len(run.Violations)
			if len(rep.ViolatingRuns) < maxViolatingRuns {
				rep.ViolatingRuns = append(rep.ViolatingRuns, run)
			}
		}
	}
	apps, err := runIndexed(rc.workers, len(topoAppNames), func(i int) (TopoAppRoundTrip, error) {
		return topoAppRoundTrip(topoAppNames[i])
	})
	if err != nil {
		return nil, err
	}
	rep.Apps = apps
	for _, a := range apps {
		rep.Violations += len(a.Violations)
	}
	return rep, nil
}

// String renders a human summary.
func (r *TopoReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topobench: %d generated networks (seed %d)\n", r.Networks, r.Seed)
	fmt.Fprintf(&b, "  shapes:    %s\n", countLine(r.Shapes))
	fmt.Fprintf(&b, "  scenarios: %s\n", countLine(r.Scenarios))
	fmt.Fprintf(&b, "  policies:  %s\n", countLine(r.Policies))
	fmt.Fprintf(&b, "  detected %d faults (%d within analytic bounds, min margin %.1f%%)\n",
		r.Detected, r.BoundChecked, r.MinMarginPct)
	fmt.Fprintf(&b, "  %d mk-bound checks\n", r.MKChecked)
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "  app %-6s round-trip: spec %4dB sizing_equal=%v golden_identical=%v\n",
			a.App, a.SpecBytes, a.SizingEqual, a.GoldenIdentical)
	}
	fmt.Fprintf(&b, "  violations: %d\n", r.Violations)
	for _, run := range r.ViolatingRuns {
		fmt.Fprintf(&b, "    seed %d (%s/%s): %s\n", run.Seed, run.Shape, run.Scenario, strings.Join(run.Violations, "; "))
	}
	return b.String()
}

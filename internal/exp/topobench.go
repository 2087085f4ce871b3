package exp

// topobench property-checks the paper's guarantees on generated
// topologies. For every seeded topo.Generate spec it verifies, on a
// network nobody hand-wired:
//
//  1. structure — the compiled graph validates and every cycle carries
//     initial tokens (kpn.DeadlockRisks is empty);
//  2. sizing admits zero false convictions — the analytic design
//     (eqs. 3-8 via SizingFor) runs the duplicated system fault-free
//     with the spec's detection policy armed and no replica is
//     convicted, the consumer stream is complete, and both replicas
//     write the full workload;
//  3. the (m,k) bounds agree — MKDetectionBounds at m=0 reproduces the
//     sizing's bounds exactly and is monotone in m;
//  4. Lemma 1 isolation and masking under the spec's fault script —
//     the consumer stream is token-identical to the golden run, the
//     healthy replica is never convicted and never back-pressured,
//     permanent faults are detected (stop modes within the analytic
//     (m,k) bound, corruption by the value cross-check), within-budget
//     transients convict nobody.
//
// On top of the generated sweep, the four paper apps round-trip
// through the DSL (topo.Describe -> Emit -> Parse -> Compile with the
// original behaviors) and must reproduce their direct golden streams
// exactly, with bit-equal sizing. Runs aggregate in index order
// (runIndexed), so the report is bit-identical at any -parallel level.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ftpn/internal/apps"
	"ftpn/internal/des"
	"ftpn/internal/fault"
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

// topoValueCheck mirrors golden.valueCheck for a topobench golden
// stream: replay-based cross-checking against the fault-free consumer
// stream, Seq-gated per the ft.ValueCheck contract.
func topoValueCheck(stream []tokenID, sizing Sizing) ft.ValueCheck {
	nPre := sizing.SelInits[0]
	if sizing.SelInits[1] > nPre {
		nPre = sizing.SelInits[1]
	}
	return func(pair int64, tok kpn.Token) bool {
		idx := int64(nPre) + pair - 1
		if idx < 0 || idx >= int64(len(stream)) {
			return true
		}
		if stream[idx].seq != tok.Seq {
			return true
		}
		return stream[idx].hash == tok.Hash()
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

	// MKChecked counts the m=0 identity + monotonicity checks.
	MKChecked int `json:"mk_checked"`

	Violations    int       `json:"violations"`
	ViolatingRuns []TopoRun `json:"violating_runs,omitempty"` // first 20

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
func topoOne(seed int64, idx int) (topoRunResult, error) {
	spec := topo.Generate(seed + int64(idx))
	res := topoRunResult{run: TopoRun{
		Seed: seed + int64(idx), Name: spec.Name, Shape: spec.Shape, Scenario: spec.Scenario,
		Policy: "inline", Procs: len(spec.Procs), Chans: len(spec.Chans),
		DetectedUs: -1, MarginPct: -1,
	}}
	run := &res.run
	violate := func(format string, args ...any) {
		run.Violations = append(run.Violations, fmt.Sprintf(format, args...))
	}
	pol := ft.PolicySpec{}
	if spec.Detection != nil {
		pol = *spec.Detection
		run.Policy = pol.String()
	}

	// --- Check 1: structure. ---
	model, err := topo.Compile(spec)
	if err != nil {
		violate("compile: %v", err)
		return res, nil
	}
	skel := spec.Skeleton()
	for _, cy := range skel.Cycles() {
		if cy.InitialTokens == 0 {
			violate("cycle %v has no initial tokens yet passed validation", cy.Channels)
		}
	}
	if risks := skel.DeadlockRisks(); len(risks) > 0 {
		violate("DeadlockRisks flagged %v on a validated spec", risks[0].Channels)
	}

	// --- Check 2: analytic sizing admits zero false convictions. ---
	app := topoApp(model)
	sizing, err := SizingFor(app)
	if err != nil {
		violate("sizing: %v", err)
		return res, nil
	}
	timingPol := pol
	timingPol.Value = false // the golden run is what the value check replays against
	var goldenStream []tokenID
	net, err := app.Build(func(now des.Time, tok kpn.Token) {
		goldenStream = append(goldenStream, tokenID{tok.Seq, tok.Hash()})
	})
	if err != nil {
		violate("build: %v", err)
		return res, nil
	}
	cfg := sizing.BuildConfig(app)
	cfg.Policy = timingPol
	k := des.NewKernel()
	sys, err := ft.Build(k, net, cfg)
	if err != nil {
		violate("ft build: %v", err)
		return res, nil
	}
	k.Run(0)
	k.Shutdown()
	if len(sys.Faults) != 0 {
		f := sys.Faults[0]
		violate("fault-free run convicted R%d at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
	}
	if int64(len(goldenStream)) != spec.Tokens {
		violate("fault-free consumer stream %d/%d tokens", len(goldenStream), spec.Tokens)
	}
	for r := 1; r <= 2; r++ {
		if w := sys.Selectors[app.OutChan].Writes(r); w != spec.Tokens {
			violate("fault-free replica R%d wrote %d/%d tokens (back-pressured)", r, w, spec.Tokens)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		violate("fault-free counter identities: %v", err)
	}

	// --- Check 3: (m,k) bounds reproduce and dominate the sizing. ---
	polM := 0
	if pol.Kind == ft.PolicyMK {
		polM = pol.M
	}
	b0, err := MKDetectionBounds(app, sizing, 0)
	bm := MKBounds{SelBoundUs: sizing.SelBoundUs, RepBoundUs: sizing.RepBoundUs}
	if err != nil {
		violate("mk bounds m=0: %v", err)
	} else {
		if b0.SelBoundUs != sizing.SelBoundUs || b0.RepBoundUs != sizing.RepBoundUs {
			violate("MKDetectionBounds(0) = (%d,%d) != sizing bounds (%d,%d)",
				b0.SelBoundUs, b0.RepBoundUs, sizing.SelBoundUs, sizing.RepBoundUs)
		}
		prev := b0
		for m := 1; m <= 2; m++ {
			bmm, err := MKDetectionBounds(app, sizing, m)
			if err != nil {
				violate("mk bounds m=%d: %v", m, err)
				break
			}
			if bmm.SelBoundUs < prev.SelBoundUs || bmm.RepBoundUs < prev.RepBoundUs {
				violate("mk bounds not monotone at m=%d: (%d,%d) < (%d,%d)",
					m, bmm.SelBoundUs, bmm.RepBoundUs, prev.SelBoundUs, prev.RepBoundUs)
			}
			if m == polM {
				bm = bmm
			}
			prev = bmm
		}
		res.mkChecked = true
		if polM > 2 {
			if bmm, err := MKDetectionBounds(app, sizing, polM); err == nil {
				bm = bmm
			}
		}
	}

	// --- Check 4: masking, Lemma 1 and detection under the script. ---
	if len(spec.Faults) > 0 {
		fs := spec.Faults[0]
		mode, _ := fault.ModeByName(fs.Mode)
		transient := fs.RepairAtUs > 0
		injectAt := des.Time(fs.AtUs)
		cfg2 := sizing.BuildConfig(app)
		cfg2.Policy = pol
		if pol.Value {
			cfg2.ValueCheck = map[string]ft.ValueCheck{app.OutChan: topoValueCheck(goldenStream, sizing)}
		}
		var stream []tokenID
		net2, err := app.Build(func(now des.Time, tok kpn.Token) {
			stream = append(stream, tokenID{tok.Seq, tok.Hash()})
		})
		if err != nil {
			violate("fault-run build: %v", err)
			return res, nil
		}
		k2 := des.NewKernel()
		sys2, err := ft.Build(k2, net2, cfg2)
		if err != nil {
			violate("fault-run ft build: %v", err)
			return res, nil
		}
		model.ApplyFaults(sys2)
		k2.Run(0)
		k2.Shutdown()

		// Exact masking: token-identical to the golden stream.
		if len(stream) != len(goldenStream) {
			violate("fault-run stream has %d tokens, golden %d", len(stream), len(goldenStream))
		} else {
			for i := range stream {
				if stream[i] != goldenStream[i] {
					violate("fault-run token %d = (seq %d, hash %x), golden (seq %d, hash %x)",
						i, stream[i].seq, stream[i].hash, goldenStream[i].seq, goldenStream[i].hash)
					break
				}
			}
		}

		// Zero false convictions; transients convict nobody.
		healthy := 3 - fs.Replica
		for _, f := range sys2.Faults {
			if f.Replica == healthy {
				violate("healthy replica R%d convicted at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
			}
			if transient && f.Replica == fs.Replica {
				violate("within-budget transient convicted R%d at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
			}
		}

		// Lemma 1: the healthy replica is never back-pressured.
		if w := sys2.Selectors[app.OutChan].Writes(healthy); w != spec.Tokens {
			violate("Lemma 1: healthy replica R%d wrote %d/%d tokens", healthy, w, spec.Tokens)
		}

		// Permanent faults must be detected; stop modes within the
		// analytic (m,k) bound, corruption by the value cross-check.
		if !transient {
			first, ok := sys2.FirstFault(fs.Replica)
			if !ok || first.At < injectAt {
				violate("%s fault injected at %dus was never detected", fs.Mode, injectAt)
			} else {
				run.DetectedUs = int64(first.At)
				latency := first.At - injectAt
				var bound des.Time
				switch mode {
				case fault.StopAll:
					bound = min(bm.SelBoundUs, bm.RepBoundUs)
				case fault.StopProducing:
					bound = bm.SelBoundUs
				case fault.StopConsuming:
					bound = bm.RepBoundUs
				}
				if bound > 0 {
					run.BoundUs = int64(bound)
					if latency > bound {
						violate("detection latency %dus exceeds analytic bound %dus (%s, m=%d)",
							latency, bound, fs.Mode, polM)
					}
					run.MarginPct = 100 * float64(bound-latency) / float64(bound)
				}
				if mode == fault.Corrupt && first.Kind != ft.KindValue {
					violate("corruption detected as %s, want a value conviction", first.Kind)
				}
			}
		}
		if err := sys2.CheckInvariants(); err != nil {
			violate("fault-run counter identities: %v", err)
		}
	}

	return res, nil
}

// topoAppNames are the paper apps swept by the round-trip check.
var topoAppNames = []string{"mjpeg", "adpcm", "h264", "radar"}

// topoAppRoundTrip round-trips one paper app through the DSL and
// compares golden streams and sizing.
func topoAppRoundTrip(name string) (TopoAppRoundTrip, error) {
	rt := TopoAppRoundTrip{App: name}
	violate := func(format string, args ...any) {
		rt.Violations = append(rt.Violations, fmt.Sprintf(format, args...))
	}
	app, err := AppByName(name, false, 120)
	if err != nil {
		return rt, err
	}
	sizing, err := SizingFor(app)
	if err != nil {
		return rt, err
	}

	// Direct golden: the hand-wired network under the ft transform.
	var direct []tokenID
	net1, err := app.Build(func(now des.Time, tok kpn.Token) {
		direct = append(direct, tokenID{tok.Seq, tok.Hash()})
	})
	if err != nil {
		return rt, err
	}
	k1 := des.NewKernel()
	sys1, err := ft.Build(k1, net1, sizing.BuildConfig(app))
	if err != nil {
		return rt, err
	}
	k1.Run(0)
	k1.Shutdown()
	if len(sys1.Faults) != 0 {
		violate("direct golden run convicted: %v", sys1.Faults[0])
	}

	// DSL round-trip: describe a second build (it donates the behavior
	// factories and the sink), emit, parse, validate, compile, rebuild.
	var dsl []tokenID
	net2, err := app.Build(func(now des.Time, tok kpn.Token) {
		dsl = append(dsl, tokenID{tok.Seq, tok.Hash()})
	})
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
	net3, err := dslApp.Build(nil) // extern: net2's factories carry the dsl sink
	if err != nil {
		violate("dsl build: %v", err)
		return rt, nil
	}
	k3 := des.NewKernel()
	sys3, err := ft.Build(k3, net3, sizing2.BuildConfig(dslApp))
	if err != nil {
		violate("dsl ft build: %v", err)
		return rt, nil
	}
	k3.Run(0)
	k3.Shutdown()
	if len(sys3.Faults) != 0 {
		violate("dsl golden run convicted: %v", sys3.Faults[0])
	}
	rt.GoldenIdentical = len(dsl) == len(direct)
	if rt.GoldenIdentical {
		for i := range dsl {
			if dsl[i] != direct[i] {
				rt.GoldenIdentical = false
				break
			}
		}
	}
	if !rt.GoldenIdentical {
		violate("dsl stream (%d tokens) is not token-identical to the direct golden (%d tokens)", len(dsl), len(direct))
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
		return topoOne(seed, i)
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
			if len(rep.ViolatingRuns) < 20 {
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

// WriteJSON writes the report.
func (r *TopoReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
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

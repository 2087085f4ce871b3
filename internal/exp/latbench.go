package exp

// latbench turns the detection-bound invariant the other benches check
// pass/fail into a measured distribution: for hundreds of generated
// stop-scenario topologies (plus the paper apps under every stop mode)
// it runs the duplicated system with the flight recorder armed,
// measures the injected-fault→conviction latency, compares each run
// against its own analytic (m,k) detection bound, and cross-checks the
// measurement against the forensic reconstruction (obs.Explain) of the
// recorder's event log. The report aggregates p50/p95/p99/max latency
// and a bound-slack histogram — the paper's Table 3 story at fleet
// scale. Runs aggregate in index order (runIndexed) and every per-run
// event log is hashed from its canonical serialization, so the report
// is bit-identical at any -parallel level.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/obs"
	"ftpn/internal/topo"
	"ftpn/internal/trace"
)

// LatRun is one generated stop-topology latency measurement.
type LatRun struct {
	Seed   int64  `json:"seed"`
	Name   string `json:"name"`
	Shape  string `json:"shape"`
	Mode   string `json:"mode"` // stop-all / stop-consuming / stop-producing
	Policy string `json:"policy"`

	InjectAtUs int64 `json:"inject_at_us"`
	DetectedUs int64 `json:"detected_us"` // -1: never convicted
	LatencyUs  int64 `json:"latency_us"`
	BoundUs    int64 `json:"bound_us"`
	SlackUs    int64 `json:"slack_us"`
	// SlackPct is 100*(bound-latency)/bound — how much of the analytic
	// detection budget the run left unused.
	SlackPct float64 `json:"slack_pct"`

	// ForensicsOK reports that obs.Explain reconstructed the same
	// injection instant, latency and fault mode from the event log that
	// the harness measured directly.
	ForensicsOK bool `json:"forensics_ok"`
	// EventsHash is an FNV-1a hash of the recorder's canonical
	// serialization; identical across -parallel levels by construction.
	EventsHash uint64 `json:"events_hash"`
	Events     int    `json:"events"`

	Violations []string `json:"violations,omitempty"`
}

// LatAppRun is one paper app × stop mode × policy latency measurement.
type LatAppRun struct {
	App    string `json:"app"`
	Mode   string `json:"mode"`
	Policy string `json:"policy"`

	InjectAtUs  int64    `json:"inject_at_us"`
	DetectedUs  int64    `json:"detected_us"`
	LatencyUs   int64    `json:"latency_us"`
	BoundUs     int64    `json:"bound_us"`
	SlackPct    float64  `json:"slack_pct"`
	ForensicsOK bool     `json:"forensics_ok"`
	Violations  []string `json:"violations,omitempty"`
}

// LatSlackBucket is one bound-slack histogram bucket: runs whose
// SlackPct fell in [LoPct, HiPct).
type LatSlackBucket struct {
	LoPct float64 `json:"lo_pct"`
	HiPct float64 `json:"hi_pct"`
	Count int     `json:"count"`
}

// LatBenchReport is the full latbench result.
type LatBenchReport struct {
	GeneratedBy  string `json:"generated_by"`
	Networks     int    `json:"networks"`
	Seed         int64  `json:"seed"`
	SeedsScanned int64  `json:"seeds_scanned"`

	Modes    map[string]int `json:"modes"`
	Policies map[string]int `json:"policies"`

	Convicted        int `json:"convicted"`
	BoundChecked     int `json:"bound_checked"`
	ForensicsChecked int `json:"forensics_checked"`

	P50Us  int64 `json:"p50_us"`
	P95Us  int64 `json:"p95_us"`
	P99Us  int64 `json:"p99_us"`
	MaxUs  int64 `json:"max_us"`
	MinUs  int64 `json:"min_us"`
	MeanUs int64 `json:"mean_us"`

	SlackP50Pct float64          `json:"slack_p50_pct"`
	SlackMinPct float64          `json:"slack_min_pct"`
	SlackHist   []LatSlackBucket `json:"slack_hist"`

	Violations    int      `json:"violations"`
	ViolatingRuns []LatRun `json:"violating_runs,omitempty"` // first 20

	Apps []LatAppRun `json:"apps"`
}

// eventsHash hashes the recorder's canonical serialization (FNV-1a).
func eventsHash(fr *obs.FlightRecorder) uint64 {
	h := fnv.New64a()
	h.Write(fr.Bytes())
	return h.Sum64()
}

// checkForensics verifies that the forensic reconstruction of the
// conviction matches the directly measured injection/latency, and that
// for value convictions the chain carries replay evidence.
func checkForensics(fr *obs.FlightRecorder, first ft.Fault, injectAt des.Time, mode string) (obs.Explanation, []string) {
	var problems []string
	ex, ok := obs.Explain(fr.Events(), first.Channel, first.Replica, int64(first.At))
	if !ok {
		return ex, []string{"forensics: no convict event in the flight log"}
	}
	if ex.InjectedAt != int64(injectAt) {
		problems = append(problems, fmt.Sprintf("forensics: injection reconstructed at %dus, injected at %dus", ex.InjectedAt, injectAt))
	}
	if ex.LatencyUs != int64(first.At-injectAt) {
		problems = append(problems, fmt.Sprintf("forensics: latency reconstructed as %dus, measured %dus", ex.LatencyUs, first.At-injectAt))
	}
	if ex.FaultMode != mode {
		problems = append(problems, fmt.Sprintf("forensics: fault mode reconstructed as %q, injected %q", ex.FaultMode, mode))
	}
	if first.Kind == ft.KindValue && ex.ValueDrops == 0 && ex.Reason != string(ft.ReasonValueDivergence) {
		problems = append(problems, "forensics: value conviction without replay evidence in the chain")
	}
	return ex, problems
}

// latTopoOne measures detection latency on one generated stop topology.
func latTopoOne(seed int64) (LatRun, error) {
	spec := topo.Generate(seed)
	run := LatRun{
		Seed: seed, Name: spec.Name, Shape: spec.Shape,
		Policy: "inline", DetectedUs: -1, LatencyUs: -1, SlackPct: -1,
	}
	violate := func(format string, args ...any) {
		run.Violations = append(run.Violations, fmt.Sprintf(format, args...))
	}
	if len(spec.Faults) == 0 {
		violate("seed %d is not a fault scenario", seed)
		return run, nil
	}
	fs := spec.Faults[0]
	mode, ok := fault.ModeByName(fs.Mode)
	if !ok {
		violate("unknown fault mode %q", fs.Mode)
		return run, nil
	}
	run.Mode = fs.Mode
	pol := ft.PolicySpec{}
	if spec.Detection != nil {
		pol = *spec.Detection
		run.Policy = pol.String()
	}
	pol.Value = false // stop faults are timing faults; no golden to replay

	model, err := topo.Compile(spec)
	if err != nil {
		violate("compile: %v", err)
		return run, nil
	}
	app := topoApp(model)
	sizing, err := SizingFor(app)
	if err != nil {
		violate("sizing: %v", err)
		return run, nil
	}
	polM := policyM(pol)
	bounds, err := MKDetectionBounds(app, sizing, polM)
	if err != nil {
		violate("mk bounds: %v", err)
		return run, nil
	}
	bound := stopBound(mode, bounds)
	injectAt := des.Time(fs.AtUs)
	run.InjectAtUs = fs.AtUs

	fr := obs.NewFlightRecorder(0)
	st := fr.Stream(0)
	net, err := app.Build(nil)
	if err != nil {
		violate("build: %v", err)
		return run, nil
	}
	cfg := sizing.BuildConfig(app)
	cfg.Policy = pol
	k := des.NewKernel()
	sys, err := ft.Build(k, net, cfg)
	if err != nil {
		violate("ft build: %v", err)
		return run, nil
	}
	ft.InstrumentFlight(sys, st)
	st.Record(obs.FlightEvent{At: fs.AtUs, Kind: obs.FlightInject, Reason: fs.Mode, Replica: fs.Replica})
	model.ApplyFaults(sys)
	k.Run(0)
	k.Shutdown()

	first, ok := sys.FirstFault(fs.Replica)
	if !ok || first.At < injectAt {
		violate("%s fault injected at %dus was never detected", fs.Mode, injectAt)
		return run, nil
	}
	run.DetectedUs = int64(first.At)
	latency := first.At - injectAt
	run.LatencyUs = int64(latency)
	if bound > 0 {
		run.BoundUs = int64(bound)
		run.SlackUs = int64(bound - latency)
		run.SlackPct = 100 * float64(bound-latency) / float64(bound)
		if latency > bound {
			violate("detection latency %dus exceeds analytic bound %dus (%s, m=%d)", latency, bound, fs.Mode, polM)
		}
	}
	_, problems := checkForensics(fr, first, injectAt, fs.Mode)
	run.ForensicsOK = len(problems) == 0
	run.Violations = append(run.Violations, problems...)
	run.Events = fr.Len()
	run.EventsHash = eventsHash(fr)
	return run, nil
}

// latStopModes are the paper-app stop sweep axes.
var latStopModes = []struct {
	name string
	mode fault.Mode
}{
	{"stop-all", fault.StopAll},
	{"stop-consuming", fault.StopConsuming},
	{"stop-producing", fault.StopProducing},
}

// latAppOne measures one paper app × stop mode × policy cell.
func latAppOne(g *golden, appName string, pol ft.PolicySpec, polName string, modeName string, mode fault.Mode, idx int) (LatAppRun, error) {
	app := g.app
	run := LatAppRun{App: appName, Mode: modeName, Policy: polName,
		DetectedUs: -1, LatencyUs: -1, SlackPct: -1}
	violate := func(format string, args ...any) {
		run.Violations = append(run.Violations, fmt.Sprintf(format, args...))
	}
	replica := 1 + idx%2
	injectAt := des.Time(app.Tokens/2) * app.PeriodUs
	run.InjectAtUs = int64(injectAt)
	bounds, err := MKDetectionBounds(app, g.sizing, policyM(pol))
	if err != nil {
		return run, err
	}
	bound := stopBound(mode, bounds)
	run.BoundUs = int64(bound)

	fr := obs.NewFlightRecorder(0)
	st := fr.Stream(0)
	net, err := app.Build(nil)
	if err != nil {
		return run, err
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, g.buildConfig(pol))
	if err != nil {
		return run, err
	}
	ft.InstrumentFlight(sys, st)
	st.Record(obs.FlightEvent{At: int64(injectAt), Kind: obs.FlightInject, Reason: modeName, Replica: replica})
	sys.InjectFault(replica, injectAt, mode, 0)
	k.Run(0)
	k.Shutdown()

	first, ok := sys.FirstFault(replica)
	if !ok || first.At < injectAt {
		violate("%s fault injected at %dus was never detected", modeName, injectAt)
		return run, nil
	}
	run.DetectedUs = int64(first.At)
	latency := first.At - injectAt
	run.LatencyUs = int64(latency)
	if bound > 0 {
		run.SlackPct = 100 * float64(bound-latency) / float64(bound)
		if latency > bound {
			violate("detection latency %dus exceeds analytic bound %dus (%s)", latency, bound, modeName)
		}
	}
	_, problems := checkForensics(fr, first, injectAt, modeName)
	run.ForensicsOK = len(problems) == 0
	run.Violations = append(run.Violations, problems...)
	return run, nil
}

// slackEdges are the bound-slack histogram bucket edges (percent of the
// analytic budget left unused).
var slackEdges = []float64{0, 10, 25, 50, 75, 90, 100}

// LatBench measures detection latency against the analytic bounds over
// n generated stop topologies plus the paper apps; deterministic at any
// parallelism level.
func LatBench(n int, seed int64, opts ...Option) (*LatBenchReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("exp: latbench needs at least one network")
	}
	rc := newRunConfig(opts)

	// Scan seeds for permanent stop scenarios — the class with an
	// analytic detection bound. topo.Generate is cheap (no compile), so
	// a sequential scan keeps seed selection deterministic.
	seeds := make([]int64, 0, n)
	scan := seed
	for int64(len(seeds)) < int64(n) {
		spec := topo.Generate(scan)
		if spec.Scenario == topo.ScenarioStop && len(spec.Faults) > 0 && spec.Faults[0].RepairAtUs == 0 {
			seeds = append(seeds, scan)
		}
		scan++
	}

	results, err := runIndexed(rc.workers, n, func(i int) (LatRun, error) {
		return latTopoOne(seeds[i])
	})
	if err != nil {
		return nil, err
	}

	rep := &LatBenchReport{
		GeneratedBy:  "ftpnsim -exp latbench",
		Networks:     n,
		Seed:         seed,
		SeedsScanned: scan - seed,
		Modes:        map[string]int{},
		Policies:     map[string]int{},
		SlackMinPct:  -1,
	}
	lat := &trace.Stats{}
	slack := &trace.Stats{} // slack pct scaled ×100 for int64 stats
	for i := range slackEdges[:len(slackEdges)-1] {
		rep.SlackHist = append(rep.SlackHist, LatSlackBucket{LoPct: slackEdges[i], HiPct: slackEdges[i+1]})
	}
	for _, run := range results {
		rep.Modes[run.Mode]++
		rep.Policies[run.Policy]++
		if run.DetectedUs >= 0 {
			rep.Convicted++
			lat.Add(run.LatencyUs)
		}
		if run.ForensicsOK {
			rep.ForensicsChecked++
		}
		if run.BoundUs > 0 {
			rep.BoundChecked++
			slack.Add(int64(run.SlackPct * 100))
			if rep.SlackMinPct < 0 || run.SlackPct < rep.SlackMinPct {
				rep.SlackMinPct = run.SlackPct
			}
			for i := range rep.SlackHist {
				b := &rep.SlackHist[i]
				if run.SlackPct >= b.LoPct && (run.SlackPct < b.HiPct || i == len(rep.SlackHist)-1) {
					b.Count++
					break
				}
			}
		}
		if len(run.Violations) > 0 {
			rep.Violations += len(run.Violations)
			if len(rep.ViolatingRuns) < 20 {
				rep.ViolatingRuns = append(rep.ViolatingRuns, run)
			}
		}
	}
	rep.P50Us = lat.Percentile(50)
	rep.P95Us = lat.Percentile(95)
	rep.P99Us = lat.Percentile(99)
	rep.MaxUs = lat.Max()
	rep.MinUs = lat.Min()
	rep.MeanUs = lat.Mean()
	rep.SlackP50Pct = float64(slack.Percentile(50)) / 100

	// Paper apps × stop modes × {binary, (m,k)}.
	goldens, err := buildGoldens(rc.workers)
	if err != nil {
		return nil, err
	}
	type appCell struct {
		g        *golden
		app      string
		pol      ft.PolicySpec
		polName  string
		modeName string
		mode     fault.Mode
	}
	var cells []appCell
	for _, a := range campaignApps {
		g := goldens[goldenKey{a.name, false}]
		mk, err := MKBudgetFor(g.app, glitchFor(g.app))
		if err != nil {
			return nil, err
		}
		for _, pc := range []struct {
			pol  ft.PolicySpec
			name string
		}{{ft.PolicySpec{Kind: ft.PolicyBinary}, "binary"}, {mk, mk.String()}} {
			for _, m := range latStopModes {
				cells = append(cells, appCell{g: g, app: a.name, pol: pc.pol, polName: pc.name, modeName: m.name, mode: m.mode})
			}
		}
	}
	appRuns, err := runIndexed(rc.workers, len(cells), func(i int) (LatAppRun, error) {
		c := cells[i]
		return latAppOne(c.g, c.app, c.pol, c.polName, c.modeName, c.mode, i)
	})
	if err != nil {
		return nil, err
	}
	rep.Apps = appRuns
	for _, a := range appRuns {
		rep.Violations += len(a.Violations)
	}
	return rep, nil
}

// WriteJSON writes the report.
func (r *LatBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders a human summary.
func (r *LatBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latbench: %d generated stop topologies (seed %d, %d seeds scanned)\n",
		r.Networks, r.Seed, r.SeedsScanned)
	fmt.Fprintf(&b, "  modes:    %s\n", countLine(r.Modes))
	fmt.Fprintf(&b, "  policies: %s\n", countLine(r.Policies))
	fmt.Fprintf(&b, "  convicted %d/%d, %d bound-checked, %d forensics-verified\n",
		r.Convicted, r.Networks, r.BoundChecked, r.ForensicsChecked)
	fmt.Fprintf(&b, "  latency us: p50=%d p95=%d p99=%d max=%d (min=%d mean=%d)\n",
		r.P50Us, r.P95Us, r.P99Us, r.MaxUs, r.MinUs, r.MeanUs)
	fmt.Fprintf(&b, "  bound slack: p50=%.1f%% min=%.1f%%", r.SlackP50Pct, r.SlackMinPct)
	for _, bk := range r.SlackHist {
		fmt.Fprintf(&b, "  [%.0f-%.0f)%%:%d", bk.LoPct, bk.HiPct, bk.Count)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %-8s %-16s %-16s %12s %12s %8s\n", "app", "policy", "mode", "latency (us)", "bound (us)", "slack")
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "  %-8s %-16s %-16s %12d %12d %7.1f%%\n",
			a.App, a.Policy, a.Mode, a.LatencyUs, a.BoundUs, a.SlackPct)
	}
	fmt.Fprintf(&b, "  violations: %d\n", r.Violations)
	for _, run := range r.ViolatingRuns {
		fmt.Fprintf(&b, "    seed %d (%s/%s): %s\n", run.Seed, run.Shape, run.Mode, strings.Join(run.Violations, "; "))
	}
	return b.String()
}

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
	"fmt"
	"hash/fnv"
	"strings"

	"ftpn/internal/des"
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
	ViolatingRuns []LatRun `json:"violating_runs,omitempty"` // first maxViolatingRuns

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
func checkForensics(fr *obs.FlightRecorder, first ft.Fault, injectAt des.Time, mode string) []string {
	ex, ok := obs.Explain(fr.Events(), first.Channel, first.Replica, int64(first.At))
	if !ok {
		return []string{"forensics: no convict event in the flight log"}
	}
	var problems []string
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
	return problems
}

// latTopoOne measures detection latency on one generated stop topology:
// checkSpec with the flight recorder armed, then the forensic
// cross-check and the event-log hash.
func latTopoOne(seed int64) LatRun {
	spec := topo.Generate(seed)
	fs := spec.Faults[0] // LatBench scans for permanent stop scenarios
	fr := obs.NewFlightRecorder(0)
	sc := checkSpec(spec, fr)
	run := LatRun{
		Seed: seed, Name: spec.Name, Shape: spec.Shape, Mode: fs.Mode, Policy: sc.policy,
		InjectAtUs: fs.AtUs, DetectedUs: -1, LatencyUs: -1, SlackPct: -1, Violations: sc.violations,
	}
	det := sc.det
	if !det.convicted {
		return run
	}
	run.DetectedUs = int64(det.first.At)
	run.LatencyUs = int64(det.latency)
	if det.bound > 0 {
		run.BoundUs = int64(det.bound)
		run.SlackUs = int64(det.bound - det.latency)
		run.SlackPct = det.slackPct
	}
	problems := checkForensics(fr, det.first, des.Time(fs.AtUs), fs.Mode)
	run.ForensicsOK = len(problems) == 0
	run.Violations = append(run.Violations, problems...)
	run.Events = fr.Len()
	run.EventsHash = eventsHash(fr)
	return run
}

// latStopModes are the paper-app stop sweep axes.
var latStopModes = []string{"stop-all", "stop-consuming", "stop-producing"}

// latAppCell is one paper app × policy × stop mode cell.
type latAppCell struct {
	g       *golden
	app     string
	pol     ft.PolicySpec
	polName string
	mode    string
}

// latAppOne measures cell c on its idx-th run.
func latAppOne(c latAppCell, idx int) (LatAppRun, error) {
	app := c.g.app
	run := LatAppRun{App: c.app, Mode: c.mode, Policy: c.polName,
		DetectedUs: -1, LatencyUs: -1, SlackPct: -1}
	inj := injection{replica: 1 + idx%2, at: des.Time(app.Tokens/2) * app.PeriodUs, mode: modeByName(c.mode), name: c.mode}
	inj.arm = func(sys *ft.System) { sys.InjectFault(inj.replica, inj.at, inj.mode, 0) }
	run.InjectAtUs = int64(inj.at)
	bounds, err := MKDetectionBounds(app, c.g.sizing, policyM(c.pol))
	if err != nil {
		return run, err
	}
	fr := obs.NewFlightRecorder(0)
	res, err := c.g.runDetection(c.pol, inj, bounds, fr)
	if err != nil {
		return run, err
	}

	det := res.det
	run.BoundUs = int64(det.bound)
	run.Violations = append(run.Violations, det.violations...)
	if !det.convicted {
		return run, nil
	}
	run.DetectedUs = int64(det.first.At)
	run.LatencyUs = int64(det.latency)
	run.SlackPct = det.slackPct
	problems := checkForensics(fr, det.first, inj.at, c.mode)
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
		return latTopoOne(seeds[i]), nil
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
			if len(rep.ViolatingRuns) < maxViolatingRuns {
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
	var cells []latAppCell
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
			for _, mode := range latStopModes {
				cells = append(cells, latAppCell{g: g, app: a.name, pol: pc.pol, polName: pc.name, mode: mode})
			}
		}
	}
	appRuns, err := runIndexed(rc.workers, len(cells), func(i int) (LatAppRun, error) {
		return latAppOne(cells[i], i)
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

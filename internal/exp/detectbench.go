package exp

// detectbench quantifies the detection-policy tradeoff the (m,k) layer
// introduces: false-conviction rate on forgivable gray faults versus
// missed detections and latency on permanent and value faults. Each
// cell is (app, policy, fault class); per run the duplicated system
// executes with the policy armed, one fault from the class injected at
// a seeded instant, no recovery manager (detection only), and the
// consumer stream compared against the cell's golden reference. For
// permanent stop faults the cell also carries the analytic (m,k)
// detection bound (rtc.DetectionBoundMK via MKDetectionBounds), so the
// report doubles as the analytic-vs-simulated latency comparison.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

// detectClasses are the fault classes the bench sweeps. "Transient"
// classes heal (or stay) within a correctly sized (m,k) budget: any
// conviction there is a false conviction. The others are real faults a
// detector should catch.
var detectClasses = []struct {
	name      string
	transient bool
}{
	{"glitch", true},   // bounded Degrade outage, repaired
	{"burst", true},    // duty-cycled stop episodes within the budget
	{"stop", false},    // permanent fail-silent stop (paper's model)
	{"drift", false},   // ramping degrade, permanent
	{"drop", false},    // intermittent token loss, permanent
	{"corrupt", false}, // payload corruption with clean timing (value fault)
}

// glitchFor is the transient outage length the bench (and MKBudgetFor)
// size against: long enough that the backlog it causes overflows the
// replicator queue at least once (|R_k| is 2-3 for the bench apps, so
// binary convicts), short enough that the handful of forgiven
// overflow drops stays below the divergence threshold D and the
// selector's stall slack — past that point the skipped tokens leave a
// *permanent* pair skew and a transient becomes indistinguishable
// from a degraded replica (re-integration, not forgiveness, is the
// remedy there).
func glitchFor(app App) des.Time { return 3 * app.PeriodUs }

// MKBudgetFor derives an (m,k) policy spec sized to forgive transient
// outages of glitchUs on either replica: the violation budget m is the
// worst case over the app's envelopes of rtc.StallViolationBudget, and
// the window k is the smallest power-of-two-ish span that both admits
// m violations and flushes between well-separated episodes.
func MKBudgetFor(app App, glitchUs des.Time) (ft.PolicySpec, error) {
	in1, in2 := app.InModel(1), app.InModel(2)
	out1, out2 := app.OutModel(1), app.OutModel(2)
	h := rtc.Horizon(app.Producer, app.Consumer, in1, in2, out1, out2) * 8
	m := 1
	for _, env := range []rtc.PJD{app.Producer, app.Consumer, in1, in2, out1, out2} {
		b, err := rtc.StallViolationBudget(env.Upper(), glitchUs, h)
		if err != nil {
			return ft.PolicySpec{}, fmt.Errorf("exp: mk budget for %s: %w", app.Name, err)
		}
		if b > m {
			m = b
		}
	}
	return ft.PolicySpec{Kind: ft.PolicyMK, M: m, K: 2 * (m + 1)}, nil
}

// DetectCell aggregates one (app, policy, fault class) cell.
type DetectCell struct {
	App    string `json:"app"`
	Policy string `json:"policy"`
	Fault  string `json:"fault"`
	Runs   int    `json:"runs"`

	// Convicted counts runs in which the injected replica was convicted
	// at or after the injection.
	Convicted int `json:"convicted"`
	// FalseConvictions counts convictions that a correctly sized policy
	// would avoid: any conviction on a transient-class run, or a
	// conviction of the healthy replica on a permanent-class run.
	FalseConvictions int `json:"false_convictions"`
	// Missed counts permanent-class runs whose injected replica was
	// never convicted (for "corrupt" under timing-only policies this is
	// the expected silent data corruption).
	Missed int `json:"missed"`
	// GoldenStreams counts runs whose consumer output was token-
	// identical to the fault-free golden stream.
	GoldenStreams int `json:"golden_streams"`
	// ValueConvictions counts runs whose first conviction of the target
	// was a value (replay cross-check) conviction.
	ValueConvictions int `json:"value_convictions"`

	// Latency stats over convicted runs, -1 when none convicted.
	MeanLatencyUs int64 `json:"mean_latency_us"`
	MaxLatencyUs  int64 `json:"max_latency_us"`
	// AnalyticBoundUs is the (m,k) detection bound for permanent stop
	// faults (0 when the class has no analytic bound).
	AnalyticBoundUs int64 `json:"analytic_bound_us,omitempty"`
}

// DetectReport is the full detectbench result, deterministic at any
// parallelism level.
type DetectReport struct {
	RunsPerCell int          `json:"runs_per_cell"`
	Seed        int64        `json:"seed"`
	Policies    []string     `json:"policies"`
	Cells       []DetectCell `json:"cells"`
}

// detectRun is one run's classified outcome.
type detectRun struct {
	convicted bool
	falseConv bool
	missed    bool
	golden    bool
	valueConv bool
	latencyUs int64
}

// detectOne executes one detectbench run.
func detectOne(g *golden, pol ft.PolicySpec, class string, transient bool, seed int64, idx int) (detectRun, error) {
	var out detectRun
	app := g.app
	rng := rand.New(rand.NewSource(seed*0x5851F42D4C957F2D + int64(idx) + 1))
	replica := 1 + idx%2
	p := app.PeriodUs
	glitch := glitchFor(app)
	injectAt := des.Time(app.Tokens/4)*p + des.Time(rng.Int63n(int64(app.Tokens/4)*int64(p)))

	var stream []tokenID
	net, err := app.Build(func(now des.Time, tok kpn.Token) {
		stream = append(stream, tokenID{tok.Seq, tok.Hash()})
	})
	if err != nil {
		return out, err
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, g.buildConfig(pol))
	if err != nil {
		return out, err
	}
	sw := sys.Switches[replica-1]
	switch class {
	case "stop":
		sys.InjectFault(replica, injectAt, fault.StopAll, 0)
	case "glitch":
		sys.InjectFault(replica, injectAt, fault.Degrade, 3*p)
		sw.RepairAt(injectAt + glitch)
	case "burst":
		// Two well-separated two-period stall episodes, then repaired:
		// short enough that the backlog stays within the replicator
		// queue (no forgiven drops, no permanent pair skew), long enough
		// that the consumer-stall counter trips binary detection, and
		// the (m,k) windows flush during the ~20 clean periods between
		// the episodes.
		sw.InjectGrayAt(injectAt, fault.Burst, fault.Gray{OnUs: 2 * p, PeriodUs: 20 * p})
		sw.RepairAt(injectAt + 23*p)
	case "drift":
		sw.InjectGrayAt(injectAt, fault.Drift, fault.Gray{ExtraUs: 4 * p, RampUs: 30 * p})
	case "drop":
		sw.InjectGrayAt(injectAt, fault.DropTokens, fault.Gray{EveryN: 5})
	case "corrupt":
		sw.InjectGrayAt(injectAt, fault.Corrupt, fault.Gray{EveryN: 4, Seed: uint64(idx) + 1})
	default:
		return out, fmt.Errorf("exp: unknown detect class %q", class)
	}
	k.Run(0)
	k.Shutdown()

	out.golden = len(stream) == len(g.stream)
	if out.golden {
		for i := range stream {
			if stream[i] != g.stream[i] {
				out.golden = false
				break
			}
		}
	}
	healthy := 3 - replica
	for _, f := range sys.Faults {
		if f.Replica == replica && f.At >= injectAt && !out.convicted {
			out.convicted = true
			out.latencyUs = int64(f.At - injectAt)
			out.valueConv = f.Kind == ft.KindValue
		}
		if f.Replica == healthy {
			out.falseConv = true
		}
	}
	if transient && (out.convicted || out.falseConv) {
		out.falseConv = true
	}
	if !transient && !out.convicted {
		out.missed = true
	}
	return out, nil
}

// DetectBench runs the full detection-policy benchmark: every app ×
// {binary, (m,k), (m,k)+value} × fault class, runsPerCell runs each.
func DetectBench(runsPerCell int, seed int64, opts ...Option) (*DetectReport, error) {
	if runsPerCell < 1 {
		return nil, fmt.Errorf("exp: detectbench needs at least one run per cell")
	}
	rc := newRunConfig(opts)
	goldens, err := buildGoldens(rc.workers)
	if err != nil {
		return nil, err
	}

	type cellSpec struct {
		g         *golden
		app       string // campaign short name
		pol       ft.PolicySpec
		polName   string
		class     string
		transient bool
		boundUs   des.Time
	}
	var cells []cellSpec
	polNames := []string{"binary", "mk", "mk+value"}
	for _, a := range campaignApps {
		g := goldens[goldenKey{a.name, false}]
		mk, err := MKBudgetFor(g.app, glitchFor(g.app))
		if err != nil {
			return nil, err
		}
		mkv := mk
		mkv.Value = true
		pols := []ft.PolicySpec{{Kind: ft.PolicyBinary}, mk, mkv}
		for pi, pol := range pols {
			b, err := MKDetectionBounds(g.app, g.sizing, policyM(pol))
			if err != nil {
				return nil, err
			}
			for _, cl := range detectClasses {
				var bound des.Time
				if cl.name == "stop" {
					bound = b.Worst()
				}
				cells = append(cells, cellSpec{g: g, app: a.name, pol: pol, polName: polNames[pi],
					class: cl.name, transient: cl.transient, boundUs: bound})
			}
		}
	}

	total := len(cells) * runsPerCell
	runs, err := runIndexed(rc.workers, total, func(i int) (detectRun, error) {
		c := cells[i/runsPerCell]
		return detectOne(c.g, c.pol, c.class, c.transient, seed, i%runsPerCell)
	})
	if err != nil {
		return nil, err
	}

	rep := &DetectReport{RunsPerCell: runsPerCell, Seed: seed, Policies: polNames}
	for ci, c := range cells {
		cell := DetectCell{App: c.app, Policy: c.pol.String(), Fault: c.class,
			Runs: runsPerCell, AnalyticBoundUs: int64(c.boundUs), MeanLatencyUs: -1, MaxLatencyUs: -1}
		var latSum int64
		for _, r := range runs[ci*runsPerCell : (ci+1)*runsPerCell] {
			if r.convicted {
				cell.Convicted++
				latSum += r.latencyUs
				if r.latencyUs > cell.MaxLatencyUs {
					cell.MaxLatencyUs = r.latencyUs
				}
			}
			if r.falseConv {
				cell.FalseConvictions++
			}
			if r.missed {
				cell.Missed++
			}
			if r.golden {
				cell.GoldenStreams++
			}
			if r.valueConv {
				cell.ValueConvictions++
			}
		}
		if cell.Convicted > 0 {
			cell.MeanLatencyUs = latSum / int64(cell.Convicted)
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *DetectReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the policy-tradeoff table.
func (r *DetectReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detection-policy bench — %d runs/cell, seed %d\n", r.RunsPerCell, r.Seed)
	fmt.Fprintf(&b, "  %-8s %-16s %-8s %9s %6s %7s %7s %12s %14s\n",
		"app", "policy", "fault", "convicted", "false", "missed", "golden", "max lat (us)", "bound (us)")
	for _, c := range r.Cells {
		bound := "-"
		if c.AnalyticBoundUs > 0 {
			bound = fmt.Sprintf("%d", c.AnalyticBoundUs)
		}
		lat := "-"
		if c.MaxLatencyUs >= 0 {
			lat = fmt.Sprintf("%d", c.MaxLatencyUs)
		}
		fmt.Fprintf(&b, "  %-8s %-16s %-8s %9d %6d %7d %7d %12s %14s\n",
			c.App, c.Policy, c.Fault, c.Convicted, c.FalseConvictions, c.Missed, c.GoldenStreams, lat, bound)
	}
	return b.String()
}

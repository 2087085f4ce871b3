package exp

// The duplicated-run harness. Every experiment in this package is one
// procedure: build the application's duplicated network, inject a
// fault, run, then judge the first conviction against the analytic
// detection bound (eqs. 6-8 and their (m,k) generalization) and the
// consumer stream against the fault-free golden stream. runDuplicated,
// the golden stream helpers and checkDetection are that procedure's
// only implementation; experiments differ in what they arm and how
// they aggregate. checkSpec is the procedure for one topology document,
// shared by topobench and latbench.

import (
	"fmt"

	"ftpn/internal/apps"
	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
	"ftpn/internal/topo"
)

// runDuplicated builds app with the consumer sink (nil: none), applies
// the ft transform under cfg on a fresh kernel and calls arm (if
// non-nil) to inject faults and attach recorders or monitors; an arm
// error is returned before anything runs. It then runs to completion
// (limit 0) or to the virtual-time limit, shuts the kernel down and
// returns the system.
func runDuplicated(app App, cfg ft.BuildConfig, sink apps.Sink, limit des.Time, arm func(*ft.System) error) (*ft.System, error) {
	net, err := app.Build(sink)
	if err != nil {
		return nil, err
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, cfg)
	if err != nil {
		return nil, err
	}
	if arm != nil {
		if err := arm(sys); err != nil {
			k.Shutdown()
			return nil, err
		}
	}
	k.Run(limit)
	k.Shutdown()
	return sys, nil
}

// violator returns a printf-style function that appends one violation
// to *violations.
func violator(violations *[]string) func(format string, args ...any) {
	return func(format string, args ...any) { *violations = append(*violations, fmt.Sprintf(format, args...)) }
}

// tokenID identifies a consumer token for stream comparison.
type tokenID struct {
	seq  int64
	hash uint64
}

// recordStream returns a consumer sink appending every token's
// identity to *stream.
func recordStream(stream *[]tokenID) apps.Sink {
	return func(_ des.Time, tok kpn.Token) {
		*stream = append(*stream, tokenID{tok.Seq, tok.Hash()})
	}
}

// streamDiff describes the first difference between a consumer stream
// and its golden reference, or returns "" when they are token-identical.
func streamDiff(got, want []tokenID) string {
	if len(got) != len(want) {
		return fmt.Sprintf("stream has %d tokens, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("token %d = (seq %d, hash %x), golden (seq %d, hash %x)",
				i, got[i].seq, got[i].hash, want[i].seq, want[i].hash)
		}
	}
	return ""
}

// golden is the fault-free reference of one application design: its
// consumer stream and sizing. Runs judged against it reuse the App, so
// they share its payload memo and analytic sizing.
type golden struct {
	app    App
	stream []tokenID
	sizing Sizing
}

// newGolden runs app fault-free under the timing policy pol and records
// its consumer stream; the system is returned for further checks.
func newGolden(app App, sizing Sizing, pol ft.PolicySpec) (*golden, *ft.System, error) {
	g := &golden{app: app, sizing: sizing}
	sys, err := runDuplicated(app, g.buildConfig(pol), recordStream(&g.stream), 0, nil)
	return g, sys, err
}

// buildConfig assembles the ft build configuration for one run judged
// against g under the given detection policy.
func (g *golden) buildConfig(pol ft.PolicySpec) ft.BuildConfig {
	cfg := g.sizing.BuildConfig(g.app)
	cfg.Policy = pol
	if pol.Value {
		cfg.ValueCheck = map[string]ft.ValueCheck{g.app.OutChan: g.valueCheck()}
	}
	return cfg
}

// valueCheck builds the replay-based value cross-check for the
// selector from the golden stream (RepTFD-style): pair p of the
// duplicated output corresponds to golden consumer token nPre+p-1,
// where nPre is the selector's physical preload. Pair positions past
// the recorded stream pass vacuously, and so does a token whose Seq
// differs from the golden position — that is a stream skew the timing
// detectors own (ft.ValueCheck's contract), not corruption. Only a
// same-Seq payload-hash mismatch fails the check.
func (g *golden) valueCheck() ft.ValueCheck {
	nPre := int64(max(g.sizing.SelInits[0], g.sizing.SelInits[1]))
	stream := g.stream
	return func(pair int64, tok kpn.Token) bool {
		idx := nPre + pair - 1
		if idx < 0 || idx >= int64(len(stream)) || stream[idx].seq != tok.Seq {
			return true
		}
		return stream[idx].hash == tok.Hash()
	}
}

// detection is one run's first conviction of an injected replica,
// judged against the analytic detection bound of its fault mode.
type detection struct {
	first     ft.Fault // the replica's first conviction, at or after the injection
	convicted bool
	latency   des.Time
	bound     des.Time // stopBound of the mode; 0 when the mode has none
	slackPct  float64  // 100*(bound-latency)/bound; -1 without a bounded conviction
	// violations lists a missed detection, a conviction before the
	// injection or a latency past the bound.
	violations []string
}

// checkDetection takes the first conviction of replica as the detection
// of the fault injected at injectAt and holds its latency to the
// stop-mode bound from bounds, derived for the policy's violation
// budget m. A first conviction before the injection is a false positive:
// the run then counts as undetected and reports only that violation.
func checkDetection(sys *ft.System, replica int, injectAt des.Time, mode fault.Mode, bounds MKBounds, m int) detection {
	d := detection{bound: stopBound(mode, bounds), slackPct: -1}
	first, ok := sys.FirstFault(replica)
	if !ok {
		d.violations = append(d.violations, fmt.Sprintf("%s fault injected at %dus was never detected", mode, injectAt))
		return d
	}
	if first.At < injectAt {
		d.violations = append(d.violations, fmt.Sprintf("R%d convicted at %dus, before its %s fault was injected at %dus",
			replica, first.At, mode, injectAt))
		return d
	}
	d.first, d.convicted = first, true
	d.latency = first.At - injectAt
	if d.bound > 0 {
		d.slackPct = 100 * float64(d.bound-d.latency) / float64(d.bound)
		if d.latency > d.bound {
			d.violations = append(d.violations, fmt.Sprintf("detection latency %dus exceeds analytic bound %dus (%s, m=%d)",
				d.latency, d.bound, mode, m))
		}
	}
	return d
}

// injection is the one fault a detection run arms: the replica, instant
// and mode the conviction is judged by, and the call that injects it
// into the built system.
type injection struct {
	replica int
	at      des.Time
	mode    fault.Mode
	name    string // the mode's name, as the flight log records it
	arm     func(*ft.System)
}

// detectionRun is one run of runDetection: its system, consumer stream
// and the injected replica's judged first conviction.
type detectionRun struct {
	sys    *ft.System
	stream []tokenID
	det    detection
}

// runDetection runs g's design under pol with inj armed and holds the
// injected replica's first conviction to the stop-mode bound from
// bounds. With a non-nil fr the run's flight log is recorded, opened
// by the injection event.
func (g *golden) runDetection(pol ft.PolicySpec, inj injection, bounds MKBounds, fr *obs.FlightRecorder) (detectionRun, error) {
	var run detectionRun
	sys, err := runDuplicated(g.app, g.buildConfig(pol), recordStream(&run.stream), 0, func(sys *ft.System) error {
		if fr != nil {
			st := fr.Stream(0)
			ft.InstrumentFlight(sys, st)
			st.Record(obs.FlightEvent{At: int64(inj.at), Kind: obs.FlightInject, Reason: inj.name, Replica: inj.replica})
		}
		inj.arm(sys)
		return nil
	})
	if err != nil {
		return run, err
	}
	run.sys = sys
	run.det = checkDetection(sys, inj.replica, inj.at, inj.mode, bounds, policyM(pol))
	return run, nil
}

// specCheck is one topology document's outcome through checkSpec.
type specCheck struct {
	policy    string // the detection policy's name; "inline" without one
	mkChecked bool   // the (m,k) bounds were derived and checked
	// det is the detection of the spec's permanent fault; it carries no
	// conviction when the spec has none.
	det        detection
	violations []string
}

// checkSpec compiles a topology document, sizes it (eqs. 3-8 via
// SizingFor) and property-checks the paper's guarantees on it:
//
//  1. structure — the compiled graph validates and every cycle carries
//     initial tokens (kpn.DeadlockRisks is empty);
//  2. sizing admits zero false convictions — the duplicated system runs
//     fault-free with the spec's detection policy armed and no replica
//     is convicted, the consumer stream is complete, and both replicas
//     write the full workload;
//  3. the (m,k) bounds are monotone in m — MKDetectionBounds at m = 1
//     and 2 never undercut the sizing's m = 0 bounds;
//  4. Lemma 1 isolation and masking under the spec's fault script — the
//     consumer stream is token-identical to the golden run, the healthy
//     replica is never convicted and never back-pressured, permanent
//     faults are detected (stop modes within the analytic (m,k) bound,
//     corruption by the value cross-check), within-budget transients
//     convict nobody.
//
// With a non-nil fr the fault run's flight log is recorded.
func checkSpec(spec *topo.Spec, fr *obs.FlightRecorder) specCheck {
	sc := specCheck{policy: "inline", det: detection{slackPct: -1}}
	violate := violator(&sc.violations)
	pol := ft.PolicySpec{}
	if spec.Detection != nil {
		pol = *spec.Detection
		sc.policy = pol.String()
	}

	// --- Check 1: structure. ---
	model, err := topo.Compile(spec)
	if err != nil {
		violate("compile: %v", err)
		return sc
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
		return sc
	}
	timingPol := pol
	timingPol.Value = false // the golden run is what the value check replays against
	g, sys, err := newGolden(app, sizing, timingPol)
	if err != nil {
		violate("build: %v", err)
		return sc
	}
	if len(sys.Faults) != 0 {
		f := sys.Faults[0]
		violate("fault-free run convicted R%d at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
	}
	if int64(len(g.stream)) != spec.Tokens {
		violate("fault-free consumer stream %d/%d tokens", len(g.stream), spec.Tokens)
	}
	for r := 1; r <= 2; r++ {
		if w := sys.Selectors[app.OutChan].Writes(r); w != spec.Tokens {
			violate("fault-free replica R%d wrote %d/%d tokens (back-pressured)", r, w, spec.Tokens)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		violate("fault-free counter identities: %v", err)
	}

	// --- Check 3: (m,k) bounds dominate the sizing's (m = 0). ---
	// bounds[m] is the design's bound under violation budget m, derived
	// up to the policy's own budget when a permanent fault is judged
	// against it.
	polM := policyM(pol)
	permanent := len(spec.Faults) > 0 && spec.Faults[0].RepairAtUs == 0
	top := 2
	if permanent {
		top = max(top, polM)
	}
	bounds := []MKBounds{sizing.MKBounds}
	for m := 1; m <= top; m++ {
		b, err := MKDetectionBounds(app, sizing, m)
		if err != nil {
			violate("mk bounds m=%d: %v", m, err)
			break
		}
		if prev := bounds[m-1]; b.SelBoundUs < prev.SelBoundUs || b.RepBoundUs < prev.RepBoundUs {
			violate("mk bounds not monotone at m=%d: (%d,%d) < (%d,%d)",
				m, b.SelBoundUs, b.RepBoundUs, prev.SelBoundUs, prev.RepBoundUs)
		}
		bounds = append(bounds, b)
	}
	sc.mkChecked = true

	// --- Check 4: masking, Lemma 1 and detection under the script. ---
	if len(spec.Faults) == 0 {
		return sc
	}
	fs := spec.Faults[0]
	mode, _ := fault.ModeByName(fs.Mode)
	var polBounds MKBounds
	if polM < len(bounds) {
		polBounds = bounds[polM]
	}
	inj := injection{replica: fs.Replica, at: des.Time(fs.AtUs), mode: mode, name: fs.Mode, arm: model.ApplyFaults}
	run, err := g.runDetection(pol, inj, polBounds, fr)
	if err != nil {
		violate("fault-run build: %v", err)
		return sc
	}

	// Exact masking: token-identical to the golden stream.
	if d := streamDiff(run.stream, g.stream); d != "" {
		violate("fault-run %s", d)
	}

	// Zero false convictions; transients convict nobody.
	healthy := 3 - fs.Replica
	for _, f := range run.sys.Faults {
		if f.Replica == healthy {
			violate("healthy replica R%d convicted at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
		}
		if !permanent && f.Replica == fs.Replica {
			violate("within-budget transient convicted R%d at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
		}
	}

	// Lemma 1: the healthy replica is never back-pressured.
	if w := run.sys.Selectors[app.OutChan].Writes(healthy); w != spec.Tokens {
		violate("Lemma 1: healthy replica R%d wrote %d/%d tokens", healthy, w, spec.Tokens)
	}

	// Permanent faults must be detected; stop modes within the
	// analytic (m,k) bound, corruption by the value cross-check.
	if permanent {
		sc.det = run.det
		sc.violations = append(sc.violations, run.det.violations...)
		if run.det.convicted && mode == fault.Corrupt && run.det.first.Kind != ft.KindValue {
			violate("corruption detected as %s, want a value conviction", run.det.first.Kind)
		}
	}
	if err := run.sys.CheckInvariants(); err != nil {
		violate("fault-run counter identities: %v", err)
	}
	return sc
}

package exp

// The duplicated-run harness. Every experiment in this package is one
// procedure: build the application's duplicated network, inject a
// fault, run, then judge the first conviction against the analytic
// detection bound (eqs. 6-8 and their (m,k) generalization) and the
// consumer stream against the fault-free golden stream. runDuplicated,
// the golden stream helpers and checkDetection are that procedure's
// only implementation; experiments differ in what they arm and how
// they aggregate.

import (
	"fmt"

	"ftpn/internal/apps"
	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
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

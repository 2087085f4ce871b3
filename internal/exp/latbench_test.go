package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/ft"
	"ftpn/internal/obs"
)

// TestLatBenchDeterministicAcrossParallel: the latbench report —
// including every per-run canonical event-log hash — must be
// bit-identical at any parallelism level.
func TestLatBenchDeterministicAcrossParallel(t *testing.T) {
	var ref []byte
	for i, par := range []int{1, 4} {
		rep, err := LatBench(6, 1, WithParallelism(par))
		if err != nil {
			t.Fatalf("LatBench(parallel=%d): %v", par, err)
		}
		if rep.Convicted != 6 || rep.BoundChecked != 6 || rep.ForensicsChecked != 6 {
			t.Fatalf("parallel=%d: convicted/bound/forensics = %d/%d/%d, want 6/6/6",
				par, rep.Convicted, rep.BoundChecked, rep.ForensicsChecked)
		}
		if rep.Violations != 0 {
			t.Fatalf("parallel=%d: %d violations:\n%s", par, rep.Violations, rep.String())
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if i == 0 {
			ref = buf
			continue
		}
		if !bytes.Equal(ref, buf) {
			t.Fatalf("report differs across parallelism levels:\n-- parallel=1:\n%s\n-- parallel=%d:\n%s",
				ref, par, buf)
		}
	}
}

// flightClassRun mirrors a detectbench run of one fault class with the
// flight recorder armed, and returns the recorder plus the first
// conviction of the injected replica.
func flightClassRun(g *golden, pol ft.PolicySpec, class string, idx int) (*obs.FlightRecorder, ft.Fault, des.Time, error) {
	app := g.app
	seed := int64(31)
	rng := rand.New(rand.NewSource(seed*0x5851F42D4C957F2D + int64(idx) + 1))
	replica := 1 + idx%2
	p := app.PeriodUs
	injectAt := des.Time(app.Tokens/4)*p + des.Time(rng.Int63n(int64(app.Tokens/4)*int64(p)))

	fr := obs.NewFlightRecorder(0)
	run, err := g.runDetection(pol, injection{replica: replica, at: injectAt, name: class, arm: func(sys *ft.System) {
		injectClass(sys, app, class, replica, injectAt, idx)
	}}, MKBounds{}, fr)
	if err != nil {
		return nil, ft.Fault{}, 0, err
	}
	if !run.det.convicted {
		return fr, ft.Fault{}, injectAt, fmt.Errorf("class %q (idx %d) produced no conviction", class, idx)
	}
	return fr, run.det.first, injectAt, nil
}

// TestExplainDetectbenchClasses is the forensics acceptance check: for
// every detectbench fault class that convicts, obs.Explain must
// reconstruct the full causal chain — injection instant, fault mode and
// latency — from the event log alone, with replay value-divergence
// evidence on corrupt runs.
func TestExplainDetectbenchClasses(t *testing.T) {
	goldens, err := buildGoldens(8)
	if err != nil {
		t.Fatalf("buildGoldens: %v", err)
	}
	g := goldens[goldenKey{"adpcm", false}]
	binary := ft.PolicySpec{Kind: ft.PolicyBinary}
	mk, err := MKBudgetFor(g.app, glitchFor(g.app))
	if err != nil {
		t.Fatalf("MKBudgetFor: %v", err)
	}
	mkValue := mk
	mkValue.Value = true
	// Burst episodes only trip binary detection on apps whose consumer
	// envelope is tight enough; radar convicts them on either replica.
	gBurst := goldens[goldenKey{"radar", false}]

	cases := []struct {
		g     *golden
		class string
		pol   ft.PolicySpec
		pname string
	}{
		// Binary convicts every class with a timing signature —
		// including the transients detectbench counts as false
		// convictions; forensics must explain those too.
		{g, "stop", binary, "binary"},
		{g, "glitch", binary, "binary"},
		{gBurst, "burst", binary, "binary"},
		{g, "drift", binary, "binary"},
		{g, "drop", binary, "binary"},
		// The (m,k) budget still convicts permanents, after visibly
		// filling the window.
		{g, "stop", mk, "mk"},
		{g, "drift", mk, "mk"},
		{g, "drop", mk, "mk"},
		// Corruption is only caught by the replay value cross-check.
		{g, "corrupt", mkValue, "mk+value"},
	}
	for _, c := range cases {
		for parity := 0; parity < 2; parity++ { // both replicas
			id := fmt.Sprintf("%s/%s/R%d", c.class, c.pname, 1+parity)
			// Transient classes convict at seed-dependent instants; scan
			// a few seeded injection points for a convicting run.
			var (
				fr       *obs.FlightRecorder
				first    ft.Fault
				injectAt des.Time
			)
			err := fmt.Errorf("no attempts")
			for idx := parity; idx < parity+10 && err != nil; idx += 2 {
				fr, first, injectAt, err = flightClassRun(c.g, c.pol, c.class, idx)
			}
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			ex, ok := obs.Explain(fr.Events(), first.Channel, first.Replica, int64(first.At))
			if !ok {
				t.Fatalf("%s: conviction missing from the flight log", id)
			}
			if ex.FaultMode != c.class {
				t.Errorf("%s: fault mode reconstructed as %q", id, ex.FaultMode)
			}
			if ex.InjectedAt != int64(injectAt) {
				t.Errorf("%s: injection reconstructed at %d, injected at %d", id, ex.InjectedAt, injectAt)
			}
			if want := int64(first.At - injectAt); ex.LatencyUs != want {
				t.Errorf("%s: latency reconstructed as %d, measured %d", id, ex.LatencyUs, want)
			}
			if ex.Reason != string(first.Reason) {
				t.Errorf("%s: reason %q, conviction carried %q", id, ex.Reason, first.Reason)
			}
			if len(ex.Chain) < 2 {
				t.Errorf("%s: chain has %d events, want at least inject+convict", id, len(ex.Chain))
			}
			if c.class == "corrupt" {
				if first.Kind != ft.KindValue {
					t.Errorf("%s: conviction kind = %v, want value", id, first.Kind)
				}
				if ex.ValueDrops == 0 && ex.Reason != string(ft.ReasonValueDivergence) {
					t.Errorf("%s: no replay value evidence in the chain: %+v", id, ex)
				}
			}
			if c.pname == "mk" && ex.Forgiven == 0 && len(ex.WindowFills) == 0 {
				// The (m,k) policy forgives m >= 1 violations before
				// convicting a permanent fault; the window fills are the
				// explanation's evidence for "why not earlier".
				t.Errorf("%s: (m,k) conviction with an empty forgiveness window", id)
			}
		}
	}
}

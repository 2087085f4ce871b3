package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"ftpn/internal/topo"
)

// TestTopoBenchProperties property-checks a slice of the generated
// topology space: zero violations across structure, sizing, golden
// fault-free runs, (m,k) bounds and fault scripts, plus the four paper apps round-tripping through the DSL.
func TestTopoBenchProperties(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	rep, err := TopoBench(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d property violations:\n%s", rep.Violations, rep.String())
	}
	if rep.MKChecked != n {
		t.Fatalf("mk checks ran on %d of %d networks", rep.MKChecked, n)
	}
	if rep.Detected == 0 {
		t.Fatal("no faults detected across the sweep — fault scenarios are not exercising detection")
	}
	if len(rep.Apps) != len(topoAppNames) {
		t.Fatalf("app round-trips: %d of %d ran", len(rep.Apps), len(topoAppNames))
	}
	for _, a := range rep.Apps {
		if !a.SizingEqual || !a.GoldenIdentical {
			t.Errorf("app %s round-trip: sizing_equal=%v golden_identical=%v %v",
				a.App, a.SizingEqual, a.GoldenIdentical, a.Violations)
		}
	}
}

// TestCheckSpecHandWritten runs the hand-written topology documents
// through the same property checks as the generated sweep: the (1,4)
// chain and the feedback loop, whose fault script stops replica 1 and
// must be detected within the analytic bound.
func TestCheckSpecHandWritten(t *testing.T) {
	for _, tc := range []struct {
		file, policy string
		detected     bool
	}{
		{"chain.json", "mk(1,4)", false},
		{"feedback.json", "binary", true},
	} {
		data, err := os.ReadFile("../topo/testdata/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := topo.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		sc := checkSpec(spec, nil)
		if len(sc.violations) != 0 {
			t.Errorf("%s: %d violations: %v", tc.file, len(sc.violations), sc.violations)
		}
		if sc.policy != tc.policy || !sc.mkChecked {
			t.Errorf("%s: policy %q mk_checked=%v, want %q and true", tc.file, sc.policy, sc.mkChecked, tc.policy)
		}
		det := sc.det
		if det.convicted != tc.detected {
			t.Errorf("%s: convicted=%v, want %v", tc.file, det.convicted, tc.detected)
		}
		if det.convicted && (det.bound <= 0 || det.latency > det.bound) {
			t.Errorf("%s: latency %dus against bound %dus", tc.file, det.latency, det.bound)
		}
		t.Logf("%s: %s, detected at %dus, bound %dus, margin %.1f%%", tc.file, sc.policy, det.first.At, det.bound, det.slackPct)
	}
}

// TestTopoBenchParallelIdentity: the report is bit-identical at any
// -parallel level (runIndexed aggregation order).
func TestTopoBenchParallelIdentity(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	seq, err := TopoBench(n, 7, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := TopoBench(n, 7, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("topobench report differs between -parallel 1 and 8:\n%s\nvs\n%s", a, b)
	}
}

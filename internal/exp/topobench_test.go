package exp

import (
	"bytes"
	"encoding/json"
	"testing"
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

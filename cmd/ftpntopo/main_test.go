package main

import (
	"os"
	"path/filepath"
	"testing"

	"ftpn/internal/topo"
)

func TestRunFigures(t *testing.T) {
	for _, fig := range []int{1, 2} {
		for _, summary := range []bool{false, true} {
			if err := run(fig, "", "", -1, false, summary, false); err != nil {
				t.Errorf("fig %d summary=%v: %v", fig, summary, err)
			}
		}
	}
}

func TestRunAppTopologies(t *testing.T) {
	for _, app := range []string{"mjpeg", "adpcm", "h264", "radar"} {
		if err := run(0, app, "", -1, false, false, false); err != nil {
			t.Errorf("%s reference: %v", app, err)
		}
		if err := run(0, app, "", -1, true, false, false); err != nil {
			t.Errorf("%s duplicated: %v", app, err)
		}
	}
}

// testdata lives with the topo package; the specs double as the parser
// corpus there.
func specPath(name string) string {
	return filepath.Join("..", "..", "internal", "topo", "testdata", name)
}

func TestRunLoadSpec(t *testing.T) {
	for _, name := range []string{"chain.json", "feedback.json"} {
		for _, dup := range []bool{false, true} {
			if err := run(0, "", specPath(name), -1, dup, false, false); err != nil {
				t.Errorf("-load %s dup=%v: %v", name, dup, err)
			}
		}
		if err := run(0, "", specPath(name), -1, false, false, true); err != nil {
			t.Errorf("-load %s -emit: %v", name, err)
		}
	}
}

func TestRunGenSpec(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		if err := run(0, "", "", seed, false, false, false); err != nil {
			t.Errorf("-gen %d: %v", seed, err)
		}
		if err := run(0, "", "", seed, true, true, false); err != nil {
			t.Errorf("-gen %d -dup -summary: %v", seed, err)
		}
		if err := run(0, "", "", seed, false, false, true); err != nil {
			t.Errorf("-gen %d -emit: %v", seed, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(9, "", "", -1, false, false, false); err == nil {
		t.Error("unknown figure should fail")
	}
	if err := run(0, "unknown", "", -1, false, false, false); err == nil {
		t.Error("unknown app should fail")
	}
	if err := run(0, "", "no-such-file.json", -1, false, false, false); err == nil {
		t.Error("missing -load file should fail")
	}
	if err := run(0, "", "x.json", 3, false, false, false); err == nil {
		t.Error("-load with -gen should fail")
	}
	// A spec that parses but fails validation must be rejected.
	bad := filepath.Join(t.TempDir(), "bad.json")
	spec := &topo.Spec{Name: "bad", Tokens: 0}
	data, err := topo.Emit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(0, "", bad, -1, false, false, false); err == nil {
		t.Error("invalid spec should fail validation")
	}
}

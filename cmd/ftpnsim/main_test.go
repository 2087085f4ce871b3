package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// cli builds a config with test defaults (sequential unless stated).
func cli(expName, appName string, runs int, pollUs, tokens int64) cliConfig {
	return cliConfig{
		expName: expName, appName: appName, runs: runs,
		pollUs: pollUs, tokens: tokens, parallel: 1, out: "-",
	}
}

func TestRunTable1(t *testing.T) {
	if err := run(cli("table1", "all", 1, 1000, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable2SingleApp(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run(cli("table2", "adpcm", 2, 1000, 80)); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable2Parallel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := cli("table2", "adpcm", 2, 1000, 80)
	cfg.parallel = 4
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run(cli("table3", "all", 2, 1000, 80)); err != nil {
		t.Fatal(err)
	}
}

func TestRunFills(t *testing.T) {
	if err := run(cli("fills", "adpcm", 1, 1000, 60)); err != nil {
		t.Fatal(err)
	}
	// "all" falls back to the ADPCM profile.
	if err := run(cli("fills", "all", 1, 1000, 60)); err != nil {
		t.Fatal(err)
	}
}

func TestRunTracefile(t *testing.T) {
	cfg := cli("table1", "adpcm", 1, 1000, 100)
	cfg.tracefile = filepath.Join(t.TempDir(), "out.json")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.tracefile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("tracefile is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("tracefile has no events")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(cli("nope", "all", 1, 1000, 0)); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run(cli("table2", "unknown-app", 1, 1000, 0)); err == nil {
		t.Error("unknown app should fail")
	}
	if err := run(cli("fills", "unknown-app", 1, 1000, 0)); err == nil {
		t.Error("unknown app should fail for fills")
	}
}

// jsonReport is a stand-in report for writeReport.
type jsonReport struct{ body string }

func (r jsonReport) WriteJSON(w io.Writer) error {
	_, err := io.WriteString(w, r.body)
	return err
}

func TestWriteReport(t *testing.T) {
	dir := t.TempDir()
	def := filepath.Join(dir, "default.json")
	if err := writeReport("", def, "test report", jsonReport{"{}\n"}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(def); err != nil || string(got) != "{}\n" {
		t.Fatalf("default path holds %q, %v", got, err)
	}
	out := filepath.Join(dir, "out.json")
	if err := writeReport(out, def, "test report", jsonReport{"[]\n"}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(out); err != nil || string(got) != "[]\n" {
		t.Fatalf("-out path holds %q, %v", got, err)
	}
	if err := writeReport(filepath.Join(dir, "missing", "x.json"), def, "test report", jsonReport{}); err == nil {
		t.Error("unwritable -out path should fail")
	}
}

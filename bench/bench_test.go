package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"ftpn/internal/exp"
)

// benchmarkSpec is BENCHMARK.json as these tests read it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// seconds is how long the tests measure each workload.
func seconds() float64 {
	if testing.Short() {
		return 0.2
	}
	return 1
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	s := loadSpec(t)
	check := func(kind string, json []boundDef, code []metricDef) {
		if len(json) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(json), len(code))
		}
		for i, d := range code {
			if json[i].Name != d.name || json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, json[i].Name, json[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, s.Workloads[i].Name, w.name)
		}
		if _, ok := pinnedDigests[w.name]; !ok {
			t.Errorf("workload %s has no seed-1 digest pin", w.name)
		}
	}
}

// TestWorkloads runs every workload at seed 1 (where the digest pins
// apply) and seed 2, untraced and traced, and checks that every metric
// BENCHMARK.json names is reported with its unit and that no op failed.
func TestWorkloads(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				if traced && seed == 2 {
					continue
				}
				rep, err := execute(config{workload: w.name, seed: seed, seconds: seconds(), trace: traced, workers: 2, setupReps: 1})
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
				}
				if rep.FailedOps != 0 || rep.Pinned == "mismatch" {
					t.Errorf("%s seed %d: %d of %d ops failed, digest pin %s: %v", w.name, seed, rep.FailedOps, rep.Ops, rep.Pinned, rep.Problems)
				}
				if seed == 1 && rep.Pinned != "match" {
					t.Errorf("%s seed 1: digest pin %s", w.name, rep.Pinned)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rep.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
					}
				}
			}
		}
	}
}

// TestDigestIndependentOfWorkers checks that the DES workloads aggregate
// in op order: one and two workers produce the same sim_digest.
func TestDigestIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"campaign", "apps_cold", "topo_fleet"} {
		w, _ := workloadByName(name)
		b, err := w.setup(3)
		if err != nil {
			t.Fatal(err)
		}
		var digests [2]uint64
		for i, workers := range []int{1, 2} {
			m, err := b.measure(measureConfig{workers: workers, seconds: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 {
				t.Fatalf("%s: %v", name, m.problems)
			}
			digests[i] = m.digest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: sim_digest %016x at 1 worker, %016x at 2", name, digests[0], digests[1])
		}
	}
}

// TestCampaignMatchesOracle cross-checks the benchmark's own campaign
// loop against exp.Campaign on the same seed and run count.
func TestCampaignMatchesOracle(t *testing.T) {
	runs := 1000
	if testing.Short() {
		runs = 200
	}
	b, err := setupCampaign(1)
	if err != nil {
		t.Fatal(err)
	}
	var got arcs
	for i := 0; i < runs; i++ {
		res := b.(*campaignBench).op(i, nil)
		got.add(res.arcs)
		if len(res.problems) > 0 {
			t.Errorf("run %d: %v", i, res.problems)
		}
	}
	want, err := exp.Campaign(exp.CampaignConfig{Runs: runs, Seed: 1}, exp.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if want.Violations != 0 || got.violating != 0 {
		t.Errorf("violations: oracle %d, benchmark %d", want.Violations, got.violating)
	}
	if got.detected != want.Detected || got.recovered != want.Recovered ||
		got.secondInjected != want.SecondInjected || got.secondDetected != want.SecondDetected {
		t.Errorf("benchmark detected/recovered/second-injected/second-detected = %d/%d/%d/%d, exp.Campaign %d/%d/%d/%d",
			got.detected, got.recovered, got.secondInjected, got.secondDetected,
			want.Detected, want.Recovered, want.SecondInjected, want.SecondDetected)
	}
}

// TestNothingMeasuredFails checks the guards that refuse a benchmark
// measuring nothing: a unit-cost loop whose time does not grow with its
// count, and a workload whose ops simulate nothing.
func TestNothingMeasuredFails(t *testing.T) {
	if _, err := unitCost("noop", func(int) time.Duration { return 0 }); !errors.Is(err, errNothingMeasured) {
		t.Errorf("empty unit-cost loop: err = %v, want errNothingMeasured", err)
	}
	idle := func(int, *tracer) opResult { return opResult{} }
	if _, err := runDES(measureConfig{workers: 2, seconds: 0.01}, idle); !errors.Is(err, errNothingMeasured) {
		t.Errorf("idle workload: err = %v, want errNothingMeasured", err)
	}
	var res opResult
	res.requireWork()
	if len(res.problems) == 0 {
		t.Error("an op with no events and no tokens passed requireWork")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestCompareVerdicts(t *testing.T) {
	higher := boundDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	lower := boundDef{Name: "op_us_p50", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		base, change []float64
		d            boundDef
		want         string
	}{
		{"faster", base, shift(5), higher, "improved"},
		{"same", base, shift(0.5), higher, "unchanged"},
		{"slower within bound", base, shift(-5), higher, "unchanged"},
		{"slower beyond bound", base, shift(-15), higher, "worse"},
		{"latency beyond bound", base, shift(15), lower, "worse"},
		{"latency better", base, shift(-5), lower, "improved"},
		{"too few pairs", base[:5], shift(5)[:5], higher, "unchanged"},
		{"spread wider than bound", wide, shift(3), higher, "unresolved"},
	} {
		if got, _, _ := verdict(c.base, c.change, c.d); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareReadsReports runs -compare on report files.
func TestCompareReadsReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64) string {
		rep := report{Workload: "campaign", Metrics: map[string]metric{"ops_per_s": {Value: ops, Unit: "1/s"}}}
		line, _ := json.Marshal(rep)
		path := dir + "/" + name
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	args := []string{write("a", 100), write("b", 101), "--", write("c", 60), write("d", 61)}
	var out bytes.Buffer
	if err := runCompare(args, "../BENCHMARK.json", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "worse") {
		t.Errorf("compare output:\n%s", out.String())
	}
	if err := runCompare(args[:2], "../BENCHMARK.json", &out); err == nil {
		t.Error("compare without -- separator succeeded")
	}
}

func TestRunPrintsSummaryLast(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "live_crt", "-seconds", "0.1"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("summary line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("summary line has %d keys, want 4", len(last))
	}
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "campaign", "-trace", "2"},
		{"-workload", "campaign", "-seconds", "0"},
	} {
		if code := run(args, &out, &errs); code == 0 {
			t.Errorf("run %v succeeded", args)
		}
	}
}

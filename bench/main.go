// Command ftpnbench is the repository's benchmark: one command that
// drives the fault-tolerance framework end to end on a named workload,
// checks every output against its oracle, and prints every metric by
// name with its unit.
//
//	ftpnbench -workload campaign -seed 1 -seconds 10 -trace 0
//	ftpnbench -workload topo_fleet -seed 2 -seconds 10 -trace 1 -spans spans.json
//	ftpnbench -compare base1.json base2.json ... -- change1.json ...
//
// A run sets the workload up several times (reporting the median set-up
// time), then measures it for -seconds in a closed loop on one P
// (GOMAXPROCS 1, one DES worker) and prints two
// JSON lines on stdout: the full report (host, digest, every metric),
// then the summary line {correct, attempted, failed, metrics}. With
// -trace 1 the run measures the workload untraced and traced for half
// of -seconds each and reports the per-layer metrics instead of the
// end-to-end ones. The benchmark reaches every layer through its
// exported functions only; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names (bench_test.go keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the framework sees, reported by
// every workload. The 99th-percentile op time is printed in the report
// line but carries no bound: on a shared host its run-to-run spread is
// wider than any bound the benchmark could fix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"tokens_per_s", "1/s"},
	{"op_us_p50", "us"},
	{"peak_rss_mb", "MB"},
}

// summary is the last stdout line of a run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one run, printed on the line before the
// summary; -compare reads it back.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Ops       int               `json:"ops"`
	FailedOps int               `json:"failed_ops"`
	SimDigest string            `json:"sim_digest"`
	DigestOps int               `json:"digest_ops"`
	Pinned    string            `json:"digest_pin"` // "match", "mismatch" or "none"
	Problems  []string          `json:"problems,omitempty"`
	Host      host              `json:"host"`
	Metrics   map[string]metric `json:"metrics"`
	OpUsP99   float64           `json:"op_us_p99,omitempty"` // untraced runs; no bound
}

// host annotates a report with where it was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	workers   int
	setupReps int
	spans     string // traced runs: write the span list here ("" = keep in memory only)
}

// procs is the GOMAXPROCS a run uses and its number of DES workers. On
// a 2-vCPU shared host, two Ps made the workers (and live_crt's
// goroutines) contend with each other and with the garbage collector:
// the ten-seed spread of live_crt's throughput was 9-25% there, against
// 1-10% on one P.
const procs = 1

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftpnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{workers: procs, setupReps: 5}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement length in seconds")
	traceFlag := fs.Int("trace", 0, "1 = measure the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.spans, "spans", "", "traced runs: write the recorded spans to this JSON file")
	compare := fs.Bool("compare", false, "compare report files: -compare base... -- change... (bounds from BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(fs.Args(), "BENCHMARK.json", stdout); err != nil {
			fmt.Fprintln(stderr, "ftpnbench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "ftpnbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "ftpnbench: -seconds must be positive")
		return 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ftpnbench:", err)
		return 1
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "ftpnbench:", err)
		return 1
	}
	return 0
}

// errNothingMeasured marks a run or unit-cost loop that did no
// measurable work; the benchmark refuses to report it.
var errNothingMeasured = errors.New("measured nothing")

// execute sets the workload up, measures it and assembles the report.
func execute(cfg config) (*report, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, workloadNames())
	}
	reps := cfg.setupReps
	if cfg.trace {
		reps = 1 // set-up time is an end-to-end metric; traced runs skip the repeats
	}
	var setups []float64
	var b bench
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		nb, err := w.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}

	rep := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: hostInfo()}
	var m *measurement
	var err error
	if cfg.trace {
		m, rep.Metrics, err = traceRun(b, cfg)
		if err == nil && cfg.spans != "" {
			err = writeSpans(cfg.spans, m.spans)
		}
	} else {
		m, err = b.measure(measureConfig{workers: cfg.workers, seconds: cfg.seconds})
		if err == nil {
			rep.Metrics = endToEndMetrics(m, median(setups))
			rep.OpUsP99 = m.p99us
		}
	}
	if err != nil {
		return nil, err
	}
	rep.Ops, rep.FailedOps, rep.Problems = m.ops, m.failed, m.problems
	rep.DigestOps = m.digestOps
	rep.SimDigest = fmt.Sprintf("%016x", m.digest)
	rep.Pinned = "none"
	if pin, ok := pinnedDigests[w.name]; ok && cfg.seed == 1 {
		rep.Pinned = "match"
		if pin != rep.SimDigest {
			rep.Pinned = "mismatch"
			rep.Problems = append(rep.Problems, fmt.Sprintf("sim_digest %s differs from the seed-1 pin %s", rep.SimDigest, pin))
		}
	}
	return rep, nil
}

// endToEndMetrics converts an untraced measurement into the end-to-end
// metric set.
func endToEndMetrics(m *measurement, setupS float64) map[string]metric {
	opsPerS, tokensPerS := m.rates()
	vals := map[string]float64{
		"setup_s":      setupS,
		"ops_per_s":    opsPerS,
		"tokens_per_s": tokensPerS,
		"op_us_p50":    m.p50us,
		"peak_rss_mb":  peakRSSMB(),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// printReport writes the report line, then the summary line.
func printReport(w io.Writer, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	s := summary{
		Correct:   rep.FailedOps == 0 && rep.Pinned != "mismatch",
		Attempted: rep.Ops,
		Failed:    rep.FailedOps,
		Metrics:   rep.Metrics,
	}
	last, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, last)
	return err
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pinnedDigests are the seed-1 sim_digest of every workload. A seed-1
// run whose digest differs is reported incorrect: the simulated
// behaviour changed.
var pinnedDigests = map[string]string{
	"campaign":   "d6643ad65f540416",
	"apps_cold":  "480405cfd1df05f5",
	"topo_fleet": "543cc4dad2e3bacb",
	"live_crt":   "2c87b152a97de84b",
}

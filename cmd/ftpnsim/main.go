// Command ftpnsim regenerates the paper's evaluation tables from the
// simulator:
//
//	ftpnsim -exp table1
//	ftpnsim -exp table2 -app mjpeg -runs 20
//	ftpnsim -exp table2 -app all   -runs 20
//	ftpnsim -exp table3 -runs 20 -poll 1000
//	ftpnsim -exp campaign -n 1000 -seed 1 -out BENCH_PR2.json
//	ftpnsim -exp detectbench -runs 25 -seed 1 -out BENCH_PR7.json
//	ftpnsim -exp topobench -n 1000 -seed 1 -out BENCH_PR8.json
//	ftpnsim -exp latbench -n 500 -seed 1 -out BENCH_PR9.json
//	ftpnsim -exp campaign -policy mk+value -mk 2,16
//	ftpnsim -exp table2 -app adpcm -tracefile out.json
//	ftpnsim -exp campaign -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -tracefile additionally records one fault + recovery run of the
// selected application as a Chrome trace-event timeline (queue-fill
// counter tracks, fault/conviction/re-integration markers) loadable in
// Perfetto or chrome://tracing.
//
// The detectbench experiment measures detection latency and
// false-positive rate per fault class (transient glitch/burst,
// permanent stop/drift/drop, value corruption) under the binary,
// per-app (m,k) weakly-hard, and (m,k)+value-check policies, and
// compares measured latency against the analytic detection bound. The
// topobench experiment generates -n seeded random topologies from the
// internal/topo DSL and property-checks each one — analytic sizing
// admits zero false convictions, Lemma 1 isolation and masking under a
// scripted fault, and (m,k) detection bounds — then round-trips the
// paper apps through the DSL against their golden streams; it exits
// non-zero on any violation. The latbench experiment measures
// injected-stop-to-conviction latency over -n generated topologies and
// the paper apps against each run's analytic (m,k) bound, and
// cross-checks every measurement against the flight-recorder forensics.
// The -out reports are deterministic: identical at any -parallel level
// and from run to run. Wall-clock performance is measured by the
// repository benchmark (bash bench/run.sh), not by ftpnsim.
//
// -cpuprofile/-memprofile write pprof profiles covering the selected
// experiment (the memory profile is written at exit, after a final GC).
//
// The campaign experiment sweeps randomized fault scenarios (mode ×
// replica × injection time × repair delay × jitter tier × app) through
// the detection→recovery→re-integration arc and machine-checks the
// framework's invariants on every run; it exits non-zero if any run
// violates one.
//
// Independent fault-injection runs execute on a worker pool (-parallel,
// default GOMAXPROCS); results are aggregated in run order, so the
// output is identical at any parallelism level. Times are virtual (µs
// ticks) on the SCC platform model; see EXPERIMENTS.md for the
// paper-vs-measured discussion.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/ft"
)

// cliConfig carries the parsed command-line options.
type cliConfig struct {
	expName  string
	appName  string
	runs     int
	pollUs   int64
	tokens   int64
	parallel int
	out      string // report path, "-" = stdout, "" = per-experiment default
	n        int    // campaign runs
	seed     int64  // campaign PRNG seed

	tracefile  string // Chrome-trace output path ("" = off)
	cpuprofile string // pprof CPU profile path ("" = off)
	memprofile string // pprof heap profile path ("" = off)

	policy string // detection policy: "", binary, mk, binary+value, mk+value
	mk     string // (m,k) parameters for -policy mk, as "m,k"
}

// parsePolicy resolves the -policy/-mk flags into a policy spec. The
// empty policy keeps the inline first-violation path (and the
// campaign's legacy byte-identical output).
func parsePolicy(policy, mk string) (ft.PolicySpec, error) {
	var sp ft.PolicySpec
	if s, ok := strings.CutSuffix(policy, "+value"); ok {
		sp.Value = true
		policy = s
	}
	if mk != "" && policy != "mk" {
		return sp, fmt.Errorf("-mk %q applies only to -policy mk or mk+value", mk)
	}
	switch policy {
	case "":
		if sp.Value {
			sp.Kind = ft.PolicyBinary
		}
	case "binary":
		sp.Kind = ft.PolicyBinary
	case "mk":
		sp.Kind = ft.PolicyMK
		ms, ks, ok := strings.Cut(mk, ",")
		var errM, errK error
		sp.M, errM = strconv.Atoi(ms)
		sp.K, errK = strconv.Atoi(ks)
		if !ok || errM != nil || errK != nil {
			return sp, fmt.Errorf("invalid -mk %q (want \"m,k\", e.g. -mk 2,16)", mk)
		}
	default:
		return sp, fmt.Errorf("unknown -policy %q (want binary, mk, binary+value or mk+value)", policy)
	}
	if _, err := ft.NewPolicy(sp); err != nil {
		return sp, err
	}
	return sp, nil
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.expName, "exp", "table2", "experiment: table1, table2, table3, report, fills, campaign, detectbench, topobench or latbench")
	flag.StringVar(&cfg.appName, "app", "all", "application: mjpeg, adpcm, h264, radar or all")
	flag.IntVar(&cfg.runs, "runs", 20, "fault-injection runs per configuration")
	flag.Int64Var(&cfg.pollUs, "poll", 1000, "distance-function poll period in µs (table3)")
	flag.Int64Var(&cfg.tokens, "tokens", 0, "override workload length in tokens (0 = default)")
	flag.IntVar(&cfg.parallel, "parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent runs")
	flag.StringVar(&cfg.out, "out", "", "report output path (- for stdout; default BENCH_PR2.json for campaign, BENCH_PR7.json for detectbench, BENCH_PR8.json for topobench, BENCH_PR9.json for latbench)")
	flag.IntVar(&cfg.n, "n", 1000, "randomized scenarios in a campaign")
	flag.Int64Var(&cfg.seed, "seed", 1, "campaign PRNG seed")
	flag.StringVar(&cfg.tracefile, "tracefile", "", "also write a Chrome-trace timeline of one fault+recovery run of the selected app")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the experiment to this path")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a pprof heap profile at exit to this path")
	flag.StringVar(&cfg.policy, "policy", "", "campaign detection policy: binary, mk, binary+value or mk+value (default: inline first-violation path)")
	flag.StringVar(&cfg.mk, "mk", "", "(m,k) window for -policy mk, as \"m,k\" (e.g. -mk 2,16)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ftpnsim: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg cliConfig) error {
	stop, err := startProfiles(cfg)
	if err != nil {
		return err
	}
	defer stop()
	if err := runExperiment(cfg); err != nil {
		return err
	}
	return writeTrace(cfg)
}

// startProfiles arms the -cpuprofile/-memprofile collectors and returns
// the function that flushes them once the experiment is done.
func startProfiles(cfg cliConfig) (stop func(), err error) {
	var cpuF *os.File
	if cfg.cpuprofile != "" {
		cpuF, err = os.Create(cfg.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", cfg.cpuprofile)
		}
		if cfg.memprofile != "" {
			f, err := os.Create(cfg.memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ftpnsim: memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ftpnsim: memprofile: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", cfg.memprofile)
		}
	}, nil
}

// writeTrace records the -tracefile timeline, if requested.
func writeTrace(cfg cliConfig) error {
	if cfg.tracefile == "" {
		return nil
	}
	name := cfg.appName
	if name == "all" || name == "" {
		name = "adpcm"
	}
	app, err := exp.AppByName(name, false, cfg.tokens)
	if err != nil {
		return err
	}
	f, err := os.Create(cfg.tracefile)
	if err != nil {
		return err
	}
	if err := exp.WriteChromeTrace(app, f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "chrome trace of one %s fault+recovery run written to %s\n", name, cfg.tracefile)
	return nil
}

func runExperiment(cfg cliConfig) error {
	var opts []exp.Option
	if cfg.parallel > 0 {
		opts = append(opts, exp.WithParallelism(cfg.parallel))
	}
	switch cfg.expName {
	case "table1":
		fmt.Print(exp.FormatTable1(exp.Table1()))
		return nil
	case "table2":
		names := []string{"mjpeg", "adpcm", "h264"}
		if cfg.appName != "all" {
			names = []string{cfg.appName}
		}
		for _, n := range names {
			app, err := exp.AppByName(n, false, cfg.tokens)
			if err != nil {
				return err
			}
			res, err := exp.Table2(app, cfg.runs, opts...)
			if err != nil {
				return err
			}
			fmt.Println(res.String())
		}
		return nil
	case "table3":
		rows, err := exp.Table3(cfg.runs, des.Time(cfg.pollUs), cfg.tokens, opts...)
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatTable3(rows))
		return nil
	case "report":
		return exp.WriteReport(os.Stdout, exp.ReportConfig{
			Runs: cfg.runs, Tokens: cfg.tokens, PollUs: des.Time(cfg.pollUs),
			Parallel: cfg.parallel,
		})
	case "fills":
		name := cfg.appName
		if name == "all" {
			name = "adpcm"
		}
		app, err := exp.AppByName(name, false, cfg.tokens)
		if err != nil {
			return err
		}
		samples, sizing, err := exp.FillProfile(app, 1, app.PeriodUs)
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatFillProfile(samples, sizing, app, 1))
		return nil
	case "detectbench":
		rep, err := exp.DetectBench(cfg.runs, cfg.seed, opts...)
		if err != nil {
			return err
		}
		fmt.Print(rep.String())
		return writeReport(cfg.out, "BENCH_PR7.json", "detection bench report", rep)
	case "topobench":
		rep, err := exp.TopoBench(cfg.n, cfg.seed, opts...)
		if err != nil {
			return err
		}
		fmt.Print(rep.String())
		if err := writeReport(cfg.out, "BENCH_PR8.json", "topology bench report", rep); err != nil {
			return err
		}
		if rep.Violations > 0 {
			return fmt.Errorf("topobench: %d property violations across %d generated networks", rep.Violations, rep.Networks)
		}
		return nil
	case "latbench":
		rep, err := exp.LatBench(cfg.n, cfg.seed, opts...)
		if err != nil {
			return err
		}
		fmt.Print(rep.String())
		if err := writeReport(cfg.out, "BENCH_PR9.json", "detection-latency bench report", rep); err != nil {
			return err
		}
		if rep.Violations > 0 {
			return fmt.Errorf("latbench: %d violations across %d generated networks", rep.Violations, rep.Networks)
		}
		return nil
	case "campaign":
		pol, err := parsePolicy(cfg.policy, cfg.mk)
		if err != nil {
			return err
		}
		res, err := exp.Campaign(exp.CampaignConfig{Runs: cfg.n, Seed: cfg.seed, Policy: pol}, opts...)
		if err != nil {
			return err
		}
		fmt.Print(res.String())
		if err := writeReport(cfg.out, "BENCH_PR2.json", "campaign report", res); err != nil {
			return err
		}
		if res.Violations > 0 {
			return fmt.Errorf("campaign: %d of %d runs violated an invariant", res.Violations, res.Runs)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (want table1, table2, table3, report, fills, campaign, detectbench, topobench or latbench)", cfg.expName)
	}
}

// writeReport writes rep as indented JSON (two-space indent, trailing
// newline) to path: "-" is stdout and "" the experiment's default file,
// whose name is reported on stderr.
func writeReport(path, def, what string, rep any) error {
	if path == "" {
		path = def
	}
	if path == "-" {
		return encodeReport(os.Stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeReport(f, rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s written to %s\n", what, path)
	return nil
}

// encodeReport is the one JSON encoding of every -out report.
func encodeReport(w io.Writer, rep any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

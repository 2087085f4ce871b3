package exp

import (
	"fmt"
	"strings"

	"ftpn/internal/des"
	"ftpn/internal/detect"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/trace"
)

// Table3Row compares fault-detection latency of the paper's counter
// framework against the distance-function baseline for one application.
type Table3Row struct {
	App    string
	Ours   trace.Stats // µs
	DF     trace.Stats // µs
	PollUs des.Time
	// Undetected counts runs where either method missed the fault.
	Undetected int
}

// Table3 reproduces the paper's comparison (§4.3, Table 3): replica
// timing variations are minimized (the l = 1 distance-function regime),
// a stop-consuming fault is injected, and both detectors watch the same
// monitoring point — the faulty replica's consumption at the replicator.
// The distance-function monitor is configured with the maximum-distance
// bound that gives the same no-false-positive guarantee as the
// replicator's queue-full rule (the analytic replicator bound), mirroring
// the paper's fail-silent modification of the baseline; it polls with
// period pollUs (the paper uses 1 ms), which is exactly where its extra
// latency comes from.
func Table3(runs int, pollUs des.Time, tokens int64, opts ...Option) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range []string{"mjpeg", "adpcm", "h264"} {
		row, err := table3App(name, runs, pollUs, tokens, opts...)
		if err != nil {
			return nil, fmt.Errorf("exp: table 3 %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table3Run is one run's outcome, aggregated in run order.
type table3Run struct {
	undetected bool
	ours, df   des.Time
}

// table3App measures one application's row. Runs execute on the worker
// pool (WithParallelism), each with a private kernel and monitor.
func table3App(name string, runs int, pollUs des.Time, tokens int64, opts ...Option) (Table3Row, error) {
	app, err := AppByName(name, true, tokens) // minimized jitter, as §4.3 prescribes
	if err != nil {
		return Table3Row{}, err
	}
	sizing, err := SizingFor(app)
	if err != nil {
		return Table3Row{}, err
	}
	cfg := newRunConfig(opts)
	row := Table3Row{App: app.Name, PollUs: pollUs}
	warmup := des.Time(app.Tokens/2) * app.PeriodUs

	outcomes, err := runIndexed(cfg.workers, runs, func(j int) (table3Run, error) {
		replica := 1 + j%2
		injectAt := warmup + des.Time(j)*app.PeriodUs/des.Time(runs)

		var mon *detect.DistanceMonitor
		sys, err := runDuplicated(app, sizing.BuildConfig(app), nil, des.Time(app.Tokens)*app.PeriodUs*3, func(sys *ft.System) error {
			// Distance-function baseline on the same stream, same evidence.
			mon = detect.NewDistanceMonitor(sys.K, pollUs, []des.Time{sizing.RepBoundUs})
			sys.Replicators[app.InChan].SetReadHook(replica, func(now des.Time) { mon.OnEvent(now) })
			mon.Start()
			sys.InjectFault(replica, injectAt, fault.StopConsuming, 0)
			return nil
		})
		if err != nil {
			return table3Run{}, err
		}

		ours := des.Time(-1)
		for _, f := range sys.Faults {
			if f.Replica == replica && f.Channel == app.InChan {
				ours = f.At - injectAt
				break
			}
		}
		dfOK, dfAt := mon.Faulty()
		if ours < 0 || !dfOK || dfAt < injectAt {
			return table3Run{undetected: true}, nil
		}
		return table3Run{ours: ours, df: dfAt - injectAt}, nil
	})
	if err != nil {
		return row, err
	}
	for _, o := range outcomes {
		if o.undetected {
			row.Undetected++
			continue
		}
		row.Ours.Add(o.ours)
		row.DF.Add(o.df)
	}
	return row, nil
}

// Table3ADPCMOnly measures only the ADPCM row; the polling-granularity
// ablation bench sweeps pollUs through it.
func Table3ADPCMOnly(runs int, pollUs des.Time, tokens int64, opts ...Option) (Table3Row, error) {
	return table3App("adpcm", runs, pollUs, tokens, opts...)
}

// FormatTable3 renders the comparison paper-style.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Fault Detection Latency (ms) — ours vs distance-function\n")
	fmt.Fprintf(&b, "  %-20s  %26s  %26s\n", "Application",
		"Distance Function (max/min/mean)", "Our Approach (max/min/mean)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-20s  %8s %8s %8s  %8s %8s %8s   (poll %s ms, undetected %d)\n",
			r.App,
			usToMS(r.DF.Max()), usToMS(r.DF.Min()), usToMS(r.DF.Mean()),
			usToMS(r.Ours.Max()), usToMS(r.Ours.Min()), usToMS(r.Ours.Mean()),
			usToMS(int64(r.PollUs)), r.Undetected)
	}
	return b.String()
}

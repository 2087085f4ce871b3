package exp

import (
	"fmt"
	"strings"
	"time"
	"unsafe"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/trace"
)

// appCodeBytes is the documented proxy for "application code size" used
// to express memory overhead as a percentage, standing in for the
// paper's measured binary sizes (~300 KB for its SCC applications).
const appCodeBytes = 300 * 1024

// Table2Result is one application's block of the paper's Table 2.
type Table2Result struct {
	App    App
	Sizing Sizing

	// Observed maxima under fault-free conditions.
	RepMaxFill [2]int
	SelMaxFill int

	// Fault-detection latency over the fault runs, in µs.
	SelLatency trace.Stats
	RepLatency trace.Stats
	Undetected int
	FalsePos   int

	// Consumer inter-arrival timing, reference vs duplicated (µs).
	RefInter *trace.Stats
	DupInter *trace.Stats

	// Overheads.
	MemSelBytes, MemRepBytes   int   // framework state excluding payloads
	MemSelTokens, MemRepTokens int   // token slots held
	SelOpNs, RepOpNs           int64 // measured host time per channel op

	Runs int
}

// faultRun is the order-independent outcome of one fault-injection run,
// computed inside the worker and aggregated in run order afterwards.
type faultRun struct {
	selDet, repDet bool
	selLat, repLat des.Time
	falsePos       int
}

// Table2 runs the full Table 2 experiment for one application: a
// reference run and a fault-free duplicated run (fill validation and
// timing comparison), then `runs` fault runs alternating the faulty
// replica with the injection phase swept across a period. Each run owns
// its own des.Kernel, so runs execute on a worker pool (see
// WithParallelism); aggregation is in run order, making the result
// independent of the parallelism level.
func Table2(app App, runs int, opts ...Option) (*Table2Result, error) {
	if runs < 1 {
		return nil, fmt.Errorf("exp: need at least one run")
	}
	cfg := newRunConfig(opts)
	sizing, err := SizingFor(app)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{App: app, Sizing: sizing, Runs: runs}

	// Reference run and fault-free duplicated run, as a two-task pool.
	refArr := &trace.Arrivals{}
	dupArr := &trace.Arrivals{}
	var dupSys *ft.System
	if _, err := runIndexed(cfg.workers, 2, func(i int) (struct{}, error) {
		if i == 0 {
			return struct{}{}, runReference(app, refArr)
		}
		sys, err := runDuplicated(app, sizing, dupArr, nil)
		dupSys = sys
		return struct{}{}, err
	}); err != nil {
		return nil, err
	}
	res.RefInter = refArr.Inter(app.OutInit + 2)
	res.DupInter = dupArr.Inter(max(sizing.SelInits[0], sizing.SelInits[1]) + 2)
	rep := dupSys.Replicators[app.InChan]
	sel := dupSys.Selectors[app.OutChan]
	res.RepMaxFill = [2]int{rep.MaxFill(1), rep.MaxFill(2)}
	res.SelMaxFill = sel.MaxFill()
	res.FalsePos += len(dupSys.Faults)

	// Fault runs: simulate in parallel, aggregate sequentially.
	warmup := des.Time(app.Tokens/2) * app.PeriodUs
	outcomes, err := runIndexed(cfg.workers, runs, func(j int) (faultRun, error) {
		replica := 1 + j%2
		injectAt := warmup + des.Time(j)*app.PeriodUs/des.Time(runs)
		sys, err := runDuplicated(app, sizing, nil, func(s *ft.System) {
			s.InjectFault(replica, injectAt, fault.StopAll, 0)
		})
		if err != nil {
			return faultRun{}, err
		}
		var o faultRun
		for _, f := range sys.Faults {
			if f.Replica != replica {
				o.falsePos++
				continue
			}
			switch f.Channel {
			case app.OutChan:
				if !o.selDet {
					o.selLat = f.At - injectAt
					o.selDet = true
				}
			case app.InChan:
				if !o.repDet {
					o.repLat = f.At - injectAt
					o.repDet = true
				}
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		res.FalsePos += o.falsePos
		if o.selDet {
			res.SelLatency.Add(o.selLat)
		}
		if o.repDet {
			res.RepLatency.Add(o.repLat)
		}
		if !o.selDet || !o.repDet {
			res.Undetected++
		}
	}

	// Memory overhead: framework state sizes (structs plus queue-slot
	// metadata), excluding token payload storage, as the paper reports.
	res.MemSelTokens = max(sizing.SelCaps[0], sizing.SelCaps[1])
	res.MemRepTokens = sizing.RepCaps[0] + sizing.RepCaps[1]
	tokSlot := int(unsafe.Sizeof(kpn.Token{}))
	res.MemSelBytes = int(unsafe.Sizeof(ft.Selector{})) + res.MemSelTokens*tokSlot
	res.MemRepBytes = int(unsafe.Sizeof(ft.Replicator{})) + res.MemRepTokens*tokSlot

	// Runtime overhead: host nanoseconds per channel operation.
	if cfg.opCosts {
		res.SelOpNs, res.RepOpNs = measureOpCosts(sizing)
	}
	return res, nil
}

// runReference instantiates and runs the reference network.
func runReference(app App, arr *trace.Arrivals) error {
	net, err := app.Build(func(now des.Time, tok kpn.Token) {
		if arr != nil {
			arr.Record(now)
		}
	})
	if err != nil {
		return err
	}
	k := des.NewKernel()
	if _, err := net.Instantiate(k, kpn.Options{}); err != nil {
		return err
	}
	k.Run(0)
	k.Shutdown()
	return nil
}

// runDuplicated builds and runs the duplicated system with the given
// sizing, optionally injecting a fault before the run.
func runDuplicated(app App, sizing Sizing, arr *trace.Arrivals, inject func(*ft.System)) (*ft.System, error) {
	net, err := app.Build(func(now des.Time, tok kpn.Token) {
		if arr != nil {
			arr.Record(now)
		}
	})
	if err != nil {
		return nil, err
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, sizing.BuildConfig(app))
	if err != nil {
		return nil, err
	}
	if inject != nil {
		inject(sys)
	}
	k.Run(0)
	k.Shutdown()
	return sys, nil
}

// measureOpCosts times selector and replicator operations on the host,
// yielding the per-operation runtime overhead the paper reports as a
// fraction of the application period.
func measureOpCosts(sizing Sizing) (selNs, repNs int64) {
	const ops = 20000
	k := des.NewKernel()
	sel := ft.NewSelector(k, "bench-sel", sizing.SelCaps, [2]int{0, 0}, sizing.D, nil, nil)
	rep := ft.NewReplicator(k, "bench-rep", sizing.RepCaps, nil)
	k.Spawn("driver", 0, func(p *des.Proc) {
		tok := kpn.Token{Seq: 1}
		start := time.Now()
		for i := 0; i < ops; i++ {
			sel.WriterPort(1).Write(p, tok)
			sel.WriterPort(2).Write(p, tok) // late duplicate: dropped
			sel.ReaderPort().Read(p)
		}
		selNs = time.Since(start).Nanoseconds() / (3 * ops)
		start = time.Now()
		for i := 0; i < ops; i++ {
			rep.WriterPort().Write(p, tok)
			rep.ReaderPort(1).Read(p)
			rep.ReaderPort(2).Read(p)
		}
		repNs = time.Since(start).Nanoseconds() / (3 * ops)
	})
	k.Run(0)
	k.Shutdown()
	return selNs, repNs
}

// usToMS formats microseconds as milliseconds with one decimal.
func usToMS(us int64) string { return fmt.Sprintf("%.1f", float64(us)/1000) }

// String renders the result paper-style.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — %s (runs=%d)\n", r.App.Name, r.Runs)
	fmt.Fprintf(&b, "  FIFO                     |R1| |R2| |S1| |S2| |S1|0 |S2|0\n")
	fmt.Fprintf(&b, "  Theoretical capacity      %3d  %3d  %3d  %3d  %4d  %4d\n",
		r.Sizing.RepCaps[0], r.Sizing.RepCaps[1], r.Sizing.SelCaps[0], r.Sizing.SelCaps[1],
		r.Sizing.SelInits[0], r.Sizing.SelInits[1])
	fmt.Fprintf(&b, "  Max observed fill         %3d  %3d  %3d  (no faults)\n",
		r.RepMaxFill[0], r.RepMaxFill[1], r.SelMaxFill)
	fmt.Fprintf(&b, "  Divergence thresholds     D=%d (selector)  D=%d (replicator)\n", r.Sizing.D, r.Sizing.DRep)
	fmt.Fprintf(&b, "  Fault detection latency (ms)\n")
	fmt.Fprintf(&b, "    at selector:   min %s  max %s  mean %s  p95 %s   upper bound %s\n",
		usToMS(r.SelLatency.Min()), usToMS(r.SelLatency.Max()), usToMS(r.SelLatency.Mean()),
		usToMS(r.SelLatency.Percentile(95)), usToMS(r.Sizing.SelBoundUs))
	fmt.Fprintf(&b, "    at replicator: min %s  max %s  mean %s  p95 %s   upper bound %s\n",
		usToMS(r.RepLatency.Min()), usToMS(r.RepLatency.Max()), usToMS(r.RepLatency.Mean()),
		usToMS(r.RepLatency.Percentile(95)), usToMS(r.Sizing.RepBoundUs))
	fmt.Fprintf(&b, "    undetected=%d false positives=%d\n", r.Undetected, r.FalsePos)
	fmt.Fprintf(&b, "  Overhead\n")
	fmt.Fprintf(&b, "    memory: selector %.1fKB+%dTokens (%.1f%%), replicator %.1fKB+%dTokens (%.1f%%)\n",
		float64(r.MemSelBytes)/1024, r.MemSelTokens, 100*float64(r.MemSelBytes)/appCodeBytes,
		float64(r.MemRepBytes)/1024, r.MemRepTokens, 100*float64(r.MemRepBytes)/appCodeBytes)
	fmt.Fprintf(&b, "    runtime: selector %dns/op (%.3f%% of period), replicator %dns/op (%.3f%% of period)\n",
		r.SelOpNs, 100*float64(r.SelOpNs)/float64(r.App.PeriodUs*1000),
		r.RepOpNs, 100*float64(r.RepOpNs)/float64(r.App.PeriodUs*1000))
	fmt.Fprintf(&b, "  Consumer inter-arrival (ms)\n")
	fmt.Fprintf(&b, "    reference:  min %s max %s mean %s\n",
		usToMS(r.RefInter.Min()), usToMS(r.RefInter.Max()), usToMS(r.RefInter.Mean()))
	fmt.Fprintf(&b, "    duplicated: min %s max %s mean %s\n",
		usToMS(r.DupInter.Min()), usToMS(r.DupInter.Max()), usToMS(r.DupInter.Mean()))
	return b.String()
}

package ftpn

// Benchmarks regenerating the paper's evaluation. One benchmark per
// table and figure, plus ablations of the design choices called out in
// DESIGN.md. Custom metrics (ms latencies, token counts) are attached
// with b.ReportMetric so `go test -bench` prints the paper-shaped
// numbers alongside the usual ns/op.
//
//	go test -bench 'Table' -benchmem      # Tables 1-3
//	go test -bench 'Fig' -benchmem        # Figures 1-2 (topologies)
//	go test -bench 'Ablation' -benchmem   # design-choice ablations

import (
	"testing"

	"ftpn/internal/crt"
	"ftpn/internal/des"
	"ftpn/internal/detect"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/scc"
)

// benchTokens keeps each in-benchmark simulation short enough to
// iterate; the ftpnsim CLI runs the full-length workloads.
const benchTokens = 120

// BenchmarkTable1 regenerates Table 1 (timing parameters).
func BenchmarkTable1(b *testing.B) {
	var rows []exp.Table1Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table1()
	}
	if len(rows) != 18 {
		b.Fatalf("table 1 rows = %d", len(rows))
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// table2Bench runs the Table 2 experiment for one application and
// reports its headline numbers.
func table2Bench(b *testing.B, name string) {
	b.Helper()
	var res *exp.Table2Result
	for i := 0; i < b.N; i++ {
		app, err := exp.AppByName(name, false, benchTokens)
		if err != nil {
			b.Fatal(err)
		}
		res, err = exp.Table2(app, 4)
		if err != nil {
			b.Fatal(err)
		}
		if res.Undetected != 0 || res.FalsePos != 0 {
			b.Fatalf("undetected=%d falsePos=%d", res.Undetected, res.FalsePos)
		}
	}
	b.ReportMetric(float64(res.SelLatency.Mean())/1000, "sel-latency-ms")
	b.ReportMetric(float64(res.Sizing.SelBoundUs)/1000, "sel-bound-ms")
	b.ReportMetric(float64(res.RepLatency.Mean())/1000, "rep-latency-ms")
	b.ReportMetric(float64(res.Sizing.RepBoundUs)/1000, "rep-bound-ms")
	b.ReportMetric(float64(res.SelMaxFill), "sel-max-fill")
	b.ReportMetric(float64(res.Sizing.SelCaps[1]), "sel-cap")
}

// BenchmarkTable2MJPEG regenerates the MJPEG block of Table 2.
func BenchmarkTable2MJPEG(b *testing.B) { table2Bench(b, "mjpeg") }

// BenchmarkTable2MJPEGSequential runs the same experiment with the
// worker pool disabled — the baseline for the parallel-runner speedup
// (compare against BenchmarkTable2MJPEG; identical output either way).
func BenchmarkTable2MJPEGSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, err := exp.AppByName("mjpeg", false, benchTokens)
		if err != nil {
			b.Fatal(err)
		}
		res, err := exp.Table2(app, 4, exp.WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Undetected != 0 || res.FalsePos != 0 {
			b.Fatalf("undetected=%d falsePos=%d", res.Undetected, res.FalsePos)
		}
	}
}

// BenchmarkTable2ADPCM regenerates the ADPCM block of Table 2.
func BenchmarkTable2ADPCM(b *testing.B) { table2Bench(b, "adpcm") }

// BenchmarkTable2H264 regenerates the H.264 variant the paper summarizes
// in prose ("similar results").
func BenchmarkTable2H264(b *testing.B) { table2Bench(b, "h264") }

// BenchmarkTable3 regenerates the distance-function comparison with the
// paper's 1 ms poll.
func BenchmarkTable3(b *testing.B) {
	var rows []exp.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Table3(2, 1000, benchTokens)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Undetected != 0 {
			b.Fatalf("%s: undetected", r.App)
		}
	}
	b.ReportMetric(float64(rows[1].Ours.Mean())/1000, "adpcm-ours-ms")
	b.ReportMetric(float64(rows[1].DF.Mean())/1000, "adpcm-df-ms")
	b.ReportMetric(float64(rows[0].Ours.Mean())/1000, "mjpeg-ours-ms")
	b.ReportMetric(float64(rows[0].DF.Mean())/1000, "mjpeg-df-ms")
	b.ReportMetric(float64(rows[2].Ours.Mean())/1000, "h264-ours-ms")
	b.ReportMetric(float64(rows[2].DF.Mean())/1000, "h264-df-ms")
}

// BenchmarkFig1Topology regenerates Figure 1: the reference network and
// its duplicated counterpart.
func BenchmarkFig1Topology(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		app, err := exp.AppByName("adpcm", false, 1)
		if err != nil {
			b.Fatal(err)
		}
		net, err := app.Build(nil)
		if err != nil {
			b.Fatal(err)
		}
		k := des.NewKernel()
		sys, err := ft.Build(k, net, ft.BuildConfig{})
		if err != nil {
			b.Fatal(err)
		}
		n = len(net.DOT()) + len(sys.DOT())
		k.Shutdown()
	}
	b.ReportMetric(float64(n), "dot-bytes")
}

// BenchmarkFig2Topology regenerates Figure 2: the MJPEG and ADPCM
// application graphs.
func BenchmarkFig2Topology(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		for _, name := range []string{"mjpeg", "adpcm"} {
			app, err := exp.AppByName(name, false, 1)
			if err != nil {
				b.Fatal(err)
			}
			net, err := app.Build(nil)
			if err != nil {
				b.Fatal(err)
			}
			n += len(net.DOT())
		}
	}
	b.ReportMetric(float64(n), "dot-bytes")
}

// BenchmarkSelectorOp measures the cost of one selector channel
// operation — the basis of Table 2's runtime-overhead row (the paper
// reports microseconds against a 30 ms period).
func BenchmarkSelectorOp(b *testing.B) {
	k := des.NewKernel()
	sel := ft.NewSelector(k, "S", [2]int{8, 8}, [2]int{0, 0}, 4, nil, nil)
	tok := kpn.Token{Seq: 1}
	k.Spawn("driver", 0, func(p *des.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel.WriterPort(1).Write(p, tok)
			sel.WriterPort(2).Write(p, tok)
			sel.ReaderPort().Read(p)
		}
	})
	k.Run(0)
	k.Shutdown()
}

// BenchmarkReplicatorOp measures one replicator channel operation.
func BenchmarkReplicatorOp(b *testing.B) {
	k := des.NewKernel()
	rep := ft.NewReplicator(k, "R", [2]int{8, 8}, nil)
	tok := kpn.Token{Seq: 1}
	k.Spawn("driver", 0, func(p *des.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep.WriterPort().Write(p, tok)
			rep.ReaderPort(1).Read(p)
			rep.ReaderPort(2).Read(p)
		}
	})
	k.Run(0)
	k.Shutdown()
}

// BenchmarkAblationSelector compares the paper's single-FIFO selector
// with virtual per-writer queues against a naive merge that buffers both
// replica streams in full FIFOs before deduplicating: the naive design
// doubles token-slot memory and adds a copy per duplicate pair.
func BenchmarkAblationSelector(b *testing.B) {
	b.Run("paper-single-fifo", func(b *testing.B) {
		k := des.NewKernel()
		sel := ft.NewSelector(k, "S", [2]int{8, 8}, [2]int{0, 0}, 0, nil, nil)
		tok := kpn.Token{Seq: 1, Payload: make([]byte, 512)}
		k.Spawn("driver", 0, func(p *des.Proc) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel.WriterPort(1).Write(p, tok)
				sel.WriterPort(2).Write(p, tok)
				sel.ReaderPort().Read(p)
			}
		})
		k.Run(0)
		k.Shutdown()
	})
	b.Run("naive-double-fifo", func(b *testing.B) {
		k := des.NewKernel()
		f1 := kpn.NewFIFO(k, "m1", 8)
		f2 := kpn.NewFIFO(k, "m2", 8)
		tok := kpn.Token{Seq: 1, Payload: make([]byte, 512)}
		k.Spawn("driver", 0, func(p *des.Proc) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f1.Write(p, tok)
				f2.Write(p, tok)
				a := f1.Read(p)
				bb := f2.Read(p)
				if a.Seq != bb.Seq { // dedup compare
					b.Fail()
				}
			}
		})
		k.Run(0)
		k.Shutdown()
	})
}

// BenchmarkAblationPolling sweeps the distance-function poll period
// (§4.3: finer polling narrows the gap at higher overhead). Reported
// metric: mean detection latency in ms for the ADPCM app.
func BenchmarkAblationPolling(b *testing.B) {
	for _, poll := range []des.Time{200, 1000, 5000} {
		poll := poll
		b.Run(formatUs(poll), func(b *testing.B) {
			var mean int64
			for i := 0; i < b.N; i++ {
				row, err := exp.Table3ADPCMOnly(2, poll, benchTokens)
				if err != nil {
					b.Fatal(err)
				}
				mean = row.DF.Mean()
			}
			b.ReportMetric(float64(mean)/1000, "df-latency-ms")
		})
	}
}

// BenchmarkAblationThreshold sweeps the divergence threshold D around
// the analytic value: D below eq. 5's bound produces false positives
// (the reported "latency" then goes negative — detection fired before
// the injection, i.e. spuriously), while larger D slows detection
// (eq. 8 grows linearly in D).
func BenchmarkAblationThreshold(b *testing.B) {
	app := exp.ADPCMApp(false, benchTokens)
	sizing, err := exp.ComputeSizing(app)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		d    int64
	}{
		{"D-below-eq5", 1},         // below the eq. 5 bound: false positives
		{"D-analytic", sizing.D},   // the paper's design point
		{"D-double", 2 * sizing.D}, // safe but slower detection
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var fp int
			var latency int64
			for i := 0; i < b.N; i++ {
				fp, latency = runThresholdProbe(b, app, sizing, v.d)
			}
			b.ReportMetric(float64(fp), "false-positives")
			b.ReportMetric(float64(latency)/1000, "latency-ms")
		})
	}
}

// runThresholdProbe runs one fault-free and one faulty simulation with
// an overridden selector threshold. Selector stall capacities are
// inflated so the divergence detector is the only selector mechanism in
// play, isolating the effect of D.
func runThresholdProbe(b *testing.B, app exp.App, sizing exp.Sizing, d int64) (falsePos int, latency int64) {
	b.Helper()
	cfg := sizing.BuildConfig(app)
	cfg.SelectorD = map[string]int64{app.OutChan: d}
	// Stall detection fires when the consumer outruns a replica by the
	// initial fill; inflating caps AND inits pushes it out of the way so
	// only the divergence detector (the ablated mechanism) remains.
	cfg.SelectorCaps = map[string][2]int{app.OutChan: {64, 64}}
	cfg.SelectorInits = map[string][2]int{app.OutChan: {32, 32}}
	cfg.ReplicatorD = nil // replicator divergence off: isolate the selector

	// Fault-free probe.
	net, err := app.Build(nil)
	if err != nil {
		b.Fatal(err)
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	falsePos = len(sys.Faults)

	// Faulty probe.
	net2, err := app.Build(nil)
	if err != nil {
		b.Fatal(err)
	}
	k2 := des.NewKernel()
	sys2, err := ft.Build(k2, net2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	injectAt := des.Time(app.Tokens/2) * app.PeriodUs
	sys2.InjectFault(1, injectAt, fault.StopProducing, 0)
	k2.Run(0)
	k2.Shutdown()
	for _, f := range sys2.Faults {
		if f.Replica == 1 && f.Channel == app.OutChan {
			latency = f.At - injectAt
			break
		}
	}
	return falsePos, latency
}

// BenchmarkAblationChunking sweeps the iRCCE chunk size for a decoded
// MJPEG frame transfer (§4.1's design choice): chunks above the 3 KB
// MPB limit fall back to DDR3 and get strictly slower, smaller chunks
// pay more synchronization overhead — 3 KB is the sweet spot.
func BenchmarkAblationChunking(b *testing.B) {
	chip, err := scc.New(scc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	src, dst := chip.Core(0), chip.Core(2)
	const frameBytes = 76800 // decoded 320x240 frame
	for _, chunk := range []int{1024, 3072, 8192} {
		chunk := chunk
		b.Run("chunk-"+itoa(chunk/1024)+"KB", func(b *testing.B) {
			var t des.Time
			for i := 0; i < b.N; i++ {
				t = chip.TransferTimeChunked(src, dst, frameBytes, chunk)
			}
			b.ReportMetric(float64(t), "transfer-us")
		})
	}
}

// BenchmarkRuntimes compares the deterministic simulation runtime
// against the concurrent goroutine runtime moving the same token stream
// through a replicator+selector pair — the cost of determinism.
func BenchmarkRuntimes(b *testing.B) {
	b.Run("des-deterministic", func(b *testing.B) {
		k := des.NewKernel()
		rep := ft.NewReplicator(k, "R", [2]int{8, 8}, nil)
		sel := ft.NewSelector(k, "S", [2]int{8, 8}, [2]int{0, 0}, 0, nil, nil)
		tok := kpn.Token{Seq: 1, Payload: make([]byte, 64)}
		k.Spawn("driver", 0, func(p *des.Proc) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.WriterPort().Write(p, tok)
				sel.WriterPort(1).Write(p, rep.ReaderPort(1).Read(p))
				sel.WriterPort(2).Write(p, rep.ReaderPort(2).Read(p))
				sel.ReaderPort().Read(p)
			}
		})
		k.Run(0)
		k.Shutdown()
	})
	b.Run("crt-goroutines", func(b *testing.B) {
		clock := crt.NewWallClock()
		rep := crt.NewReplicator(clock, "R", [2]int{8, 8}, nil)
		sel := crt.NewSelector(clock, "S", [2]int{8, 8}, [2]int{0, 0}, 0, nil)
		for r := 1; r <= 2; r++ {
			r := r
			go func() {
				for {
					tok, ok := rep.Read(r)
					if !ok {
						return
					}
					if !sel.Write(r, tok) {
						return
					}
				}
			}()
		}
		// The crt replicator convicts instead of blocking, so the driver
		// provides end-to-end flow control with a semaphore sized under
		// the queue capacities.
		sem := make(chan struct{}, 4)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < b.N; i++ {
				if _, ok := sel.Read(); !ok {
					return
				}
				<-sem
			}
		}()
		tok := crt.Token{Seq: 1, Payload: make([]byte, 64)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sem <- struct{}{}
			rep.Write(tok)
		}
		<-done
		b.StopTimer()
		rep.Close()
		sel.Close()
	})
}

// BenchmarkDistanceMonitorPoll measures the baseline monitor's per-poll
// cost (its standing runtime overhead even when nothing is wrong).
func BenchmarkDistanceMonitorPoll(b *testing.B) {
	k := des.NewKernel()
	mon := detect.NewDistanceMonitor(k, 1000, []des.Time{1 << 40})
	mon.Start()
	mon.OnEvent(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(k.Now() + 1000)
	}
	b.StopTimer()
	k.Shutdown()
}

// formatUs renders a µs value for sub-benchmark names.
func formatUs(us des.Time) string {
	switch {
	case us >= 1000 && us%1000 == 0:
		return "poll-" + itoa(int(us/1000)) + "ms"
	default:
		return "poll-" + itoa(int(us)) + "us"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Fault-tolerant MJPEG decoder on the SCC platform model: the paper's
// first benchmark application end to end. The reference network and the
// duplicated network run on a simulated 48-core SCC (one process per
// tile, iRCCE-style message timing); a stop fault is injected into one
// replica and the decoded-frame stream at the consumer is shown to be
// unaffected, with the detection latency compared against the analytic
// bound.
package main

import (
	"flag"
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/scc"
	"ftpn/internal/trace"
)

func main() {
	frames := flag.Int64("frames", 400, "frames to decode")
	replica := flag.Int("replica", 2, "replica to fault (1 or 2)")
	flag.Parse()

	app := exp.MJPEGApp(false, *frames)
	sizing, err := exp.ComputeSizing(app)
	check(err)
	fmt.Printf("analytic sizing: |R|=(%d,%d) |S|=(%d,%d) |S|0=(%d,%d) D=%d\n",
		sizing.RepCaps[0], sizing.RepCaps[1], sizing.SelCaps[0], sizing.SelCaps[1],
		sizing.SelInits[0], sizing.SelInits[1], sizing.D)
	fmt.Printf("detection bounds: selector %.1f ms, replicator %.1f ms\n",
		float64(sizing.SelBoundUs)/1000, float64(sizing.RepBoundUs)/1000)

	chip, err := scc.New(scc.DefaultConfig())
	check(err)
	fmt.Printf("SCC booted: %d cores on %d tiles, %d/%d/%d MHz\n",
		scc.NumCores, scc.NumTiles,
		chip.Config().TileFreqMHz, chip.Config().RouterFreqMHz, chip.Config().MemFreqMHz)

	arrivals := &trace.Arrivals{}
	var frameBytes int
	net, err := app.Build(func(now des.Time, tok kpn.Token) {
		arrivals.Record(now)
		if tok.Seq > 0 {
			frameBytes = tok.Size()
		}
	})
	check(err)

	cfg := sizing.BuildConfig(app)
	cfg.Chip = chip
	k := des.NewKernel()
	sys, err := ft.Build(k, net, cfg)
	check(err)
	sys.AddFaultHook(func(f ft.Fault) {
		fmt.Printf("t=%8.1f ms  DETECTED %s\n", float64(f.At)/1000, f)
	})

	injectAt := des.Time(*frames/2) * app.PeriodUs
	sys.InjectFault(*replica, injectAt, fault.StopAll, 0)
	fmt.Printf("t=%8.1f ms  injecting stop fault into replica %d\n", float64(injectAt)/1000, *replica)

	end := k.Run(0)
	k.Shutdown()

	f, ok := sys.FirstFault(*replica)
	if !ok {
		panic("fault not detected")
	}
	inter := arrivals.Inter(sizing.SelInits[1] + 2)
	fmt.Printf("simulated %.1f s of virtual time\n", float64(end)/1e6)
	fmt.Printf("decoded %d frames of %d bytes; inter-frame ms: min %.1f max %.1f mean %.1f\n",
		arrivals.Count(), frameBytes,
		float64(inter.Min())/1000, float64(inter.Max())/1000, float64(inter.Mean())/1000)
	fmt.Printf("detection latency %.1f ms (bound %.1f ms); false positives: %d\n",
		float64(f.At-injectAt)/1000, float64(sizing.SelBoundUs)/1000, len(sys.FalsePositives()))
	fmt.Printf("selector drops (late duplicates): R1=%d R2=%d\n",
		sys.Selectors["F_out"].Drops(1), sys.Selectors["F_out"].Drops(2))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Fault-tolerant ADPCM pipeline with a rate-degradation fault: unlike a
// fail-stop fault, the faulty replica keeps producing — just slower than
// its design-time model allows. The selector's divergence threshold
// (eq. 5) catches it without any runtime timer, and the audio the
// consumer hears is bit-identical to the reference run.
package main

import (
	"flag"
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
)

func main() {
	blocks := flag.Int64("blocks", 600, "3 KB audio blocks to stream")
	extra := flag.Int64("slowdown", 15000, "extra µs per channel operation after the fault")
	flag.Parse()

	app := exp.ADPCMApp(false, *blocks)
	sizing, err := exp.ComputeSizing(app)
	check(err)
	fmt.Printf("analytic sizing: |R|=(%d,%d) |S|=(%d,%d) D=%d, DRep=%d\n",
		sizing.RepCaps[0], sizing.RepCaps[1], sizing.SelCaps[0], sizing.SelCaps[1],
		sizing.D, sizing.DRep)

	// Reference run: collect the byte stream the consumer hears.
	var refAudio []uint64
	refNet, err := app.Build(func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			refAudio = append(refAudio, tok.Hash())
		}
	})
	check(err)
	k1 := des.NewKernel()
	_, err = refNet.Instantiate(k1)
	check(err)
	k1.Run(0)
	k1.Shutdown()

	// Duplicated run with a degradation fault in replica 1.
	var dupAudio []uint64
	dupNet, err := app.Build(func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			dupAudio = append(dupAudio, tok.Hash())
		}
	})
	check(err)
	cfg := sizing.BuildConfig(app)
	k2 := des.NewKernel()
	sys, err := ft.Build(k2, dupNet, cfg)
	check(err)
	sys.AddFaultHook(func(f ft.Fault) {
		fmt.Printf("t=%8.1f ms  DETECTED %s\n", float64(f.At)/1000, f)
	})
	injectAt := des.Time(*blocks/2) * app.PeriodUs
	sys.InjectFault(1, injectAt, fault.Degrade, des.Time(*extra))
	fmt.Printf("t=%8.1f ms  degrading replica 1 by +%d µs per operation\n",
		float64(injectAt)/1000, *extra)
	k2.Run(0)
	k2.Shutdown()

	// The consumer's audio must be identical despite the fault. (The two
	// runs may consume a different number of preloaded tokens, so their
	// produced streams can differ in length by that amount; both start at
	// block 1, so the common prefix must match bit for bit.)
	n := len(refAudio)
	if len(dupAudio) < n {
		n = len(dupAudio)
	}
	if n == 0 {
		panic("no audio delivered")
	}
	for i := 0; i < n; i++ {
		if refAudio[i] != dupAudio[i] {
			panic(fmt.Sprintf("audio block %d differs between reference and duplicated runs", i))
		}
	}
	f, ok := sys.FirstFault(1)
	if !ok {
		panic("degradation fault not detected")
	}
	fmt.Printf("audio bit-identical across %d blocks; degradation detected %.1f ms after onset (%s at %s)\n",
		n, float64(f.At-injectAt)/1000, f.Reason, f.Channel)
	fmt.Printf("false positives: %d\n", len(sys.FalsePositives()))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Fault-tolerant H.264 encoder: the paper's third benchmark. Both
// replicas encode the same raw frames into slices; a fail-stop fault
// hits one replica mid-run and the consumer's bitstream continues
// uninterrupted. The example also decodes the consumer's bitstream with
// the matching decoder as a value self-check.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"

	"ftpn/internal/codec/h264"
	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
)

func main() {
	frames := flag.Int64("frames", 400, "frames to encode")
	flag.Parse()

	app := exp.H264App(false, *frames)
	sizing, err := exp.ComputeSizing(app)
	check(err)
	fmt.Printf("analytic sizing: |R|=(%d,%d) |S|=(%d,%d) D=%d\n",
		sizing.RepCaps[0], sizing.RepCaps[1], sizing.SelCaps[0], sizing.SelCaps[1], sizing.D)

	var encoded [][]byte
	net, err := app.Build(func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			encoded = append(encoded, append([]byte{}, tok.Payload...))
		}
	})
	check(err)

	cfg := sizing.BuildConfig(app)
	k := des.NewKernel()
	sys, err := ft.Build(k, net, cfg)
	check(err)
	sys.AddFaultHook(func(f ft.Fault) {
		fmt.Printf("t=%8.1f ms  DETECTED %s\n", float64(f.At)/1000, f)
	})
	injectAt := des.Time(*frames/2) * app.PeriodUs
	sys.InjectFault(2, injectAt, fault.StopAll, 0)
	fmt.Printf("t=%8.1f ms  injecting stop fault into replica 2\n", float64(injectAt)/1000)
	k.Run(0)
	k.Shutdown()

	if _, ok := sys.FirstFault(2); !ok {
		panic("fault not detected")
	}
	// Self-check: every muxed token decodes back into raw slices.
	var totalBits int
	for _, tok := range encoded {
		for len(tok) > 0 {
			n := int(binary.BigEndian.Uint32(tok[:4]))
			slice := tok[4 : 4+n]
			if _, _, _, err := h264.Decode(slice); err != nil {
				panic(fmt.Sprintf("slice failed to decode: %v", err))
			}
			totalBits += n * 8
			tok = tok[4+n:]
		}
	}
	fmt.Printf("encoded %d frames despite the fault; bitstream self-check passed (%.1f KB total)\n",
		len(encoded), float64(totalBits)/8/1024)
	fmt.Printf("false positives: %d\n", len(sys.FalsePositives()))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Quickstart: build a tiny real-time process network, duplicate its
// critical subnetwork with the ft transform, size the channels with
// real-time calculus, inject a timing fault, and watch the framework
// detect and tolerate it — all in ~100 lines.
package main

import (
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

func main() {
	// A producer emitting a token every 10 ms (±1 ms), a critical worker
	// squaring the payload, and a consumer at the same rate.
	producer := rtc.PJD{Period: 10_000, Jitter: 1_000}
	consumer := rtc.PJD{Period: 10_000, Jitter: 1_000}

	var received []int64
	net := &kpn.Network{
		Name: "quickstart",
		Procs: []kpn.ProcessSpec{
			{Name: "P", Role: kpn.RoleProducer, New: func(int) kpn.Behavior {
				return kpn.Producer(producer, 1, 2000, func(i int64) []byte {
					return []byte{byte(i), byte(i >> 8)}
				})
			}},
			{Name: "W", Role: kpn.RoleCritical, New: func(replica int) kpn.Behavior {
				// Replica design diversity: replica 2 is jitterier.
				work := kpn.WorkModel{BaseUs: 2_000, JitterUs: des.Time(replica) * 2_000}
				return kpn.Transform(work, 7, func(i int64, b []byte) []byte {
					v := int64(b[0]) | int64(b[1])<<8
					v *= v
					return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
				})
			}},
			{Name: "C", Role: kpn.RoleConsumer, New: func(int) kpn.Behavior {
				return kpn.Consumer(consumer, 2, 2000, func(now des.Time, tok kpn.Token) {
					if tok.Seq > 0 {
						received = append(received, tok.Seq)
					}
				})
			}},
		},
		Chans: []kpn.ChannelSpec{
			{Name: "F_P", From: "P", To: "W", Capacity: 4, TokenBytes: 2},
			{Name: "F_C", From: "W", To: "C", Capacity: 8, InitialTokens: 2, TokenBytes: 4},
		},
	}

	// Size the duplicated system analytically (Section 3.4 of the paper).
	out1 := rtc.PJD{Period: 10_000, Jitter: 6_000} // replica 1 output envelope
	out2 := rtc.PJD{Period: 10_000, Jitter: 8_000} // replica 2 output envelope
	h := rtc.Horizon(producer, consumer, out1, out2)
	d, err := rtc.DivergenceThreshold(out1.Upper(), out1.Lower(), out2.Upper(), out2.Lower(), h)
	check(err)
	init1, err := rtc.InitialFill(out1.Lower(), consumer.Upper(), h)
	check(err)
	init2, err := rtc.InitialFill(out2.Lower(), consumer.Upper(), h)
	check(err)
	bound, err := rtc.StoppedDetectionBound([]rtc.Curve{out1.Lower(), out2.Lower()}, d, 0, 8*h)
	check(err)
	fmt.Printf("analytic design: D=%d  |S|0=(%d,%d)  detection bound=%.1f ms\n",
		d, init1, init2, float64(bound)/1000)

	// Build the duplicated system and inject a stop fault into replica 1
	// at t = 5 s.
	k := des.NewKernel()
	sys, err := ft.Build(k, net, ft.BuildConfig{
		SelectorCaps:  map[string][2]int{"F_C": {2 * int(init1), 2 * int(init2)}},
		SelectorInits: map[string][2]int{"F_C": {int(init1), int(init2)}},
		SelectorD:     map[string]int64{"F_C": d},
	})
	check(err)
	sys.AddFaultHook(func(f ft.Fault) {
		fmt.Printf("t=%6.1f ms  DETECTED %s\n", float64(f.At)/1000, f)
	})
	const injectAt = 5_000_000
	sys.InjectFault(1, injectAt, fault.StopAll, 0)
	fmt.Printf("t=%6.1f ms  injecting stop fault into replica 1\n", float64(injectAt)/1000)

	k.Run(0)
	k.Shutdown()

	f, ok := sys.FirstFault(1)
	if !ok {
		panic("fault not detected")
	}
	fmt.Printf("detection latency: %.1f ms (bound %.1f ms)\n",
		float64(f.At-injectAt)/1000, float64(bound)/1000)
	fmt.Printf("consumer received %d tokens without interruption; false positives: %d\n",
		len(received), len(sys.FalsePositives()))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

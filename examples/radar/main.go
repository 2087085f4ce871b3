// Fault-tolerant radar processing — the streaming domain the paper's
// introduction motivates. The critical subnetwork (matched filter →
// envelope → CFAR) is duplicated; a stop fault hits one replica
// mid-scan, detection lists keep flowing to the tracker, and the
// planted targets stay tracked throughout.
package main

import (
	"flag"
	"fmt"

	"ftpn/internal/apps"
	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

func main() {
	scans := flag.Int64("scans", 200, "coherent processing intervals to run")
	flag.Parse()

	cfg := apps.DefaultRadarConfig()
	cfg.Intervals = *scans

	// Size the boundary channels analytically from the radar's models.
	in1, in2 := cfg.ReplicaInputModel(1), cfg.ReplicaInputModel(2)
	out1, out2 := cfg.ReplicaOutputModel(1), cfg.ReplicaOutputModel(2)
	h := rtc.Horizon(cfg.Producer, cfg.Consumer, in1, in2, out1, out2)
	rcap1, err := rtc.BufferCapacity(cfg.Producer.Upper(), in1.Lower(), h)
	check(err)
	rcap2, err := rtc.BufferCapacity(cfg.Producer.Upper(), in2.Lower(), h)
	check(err)
	init1, err := rtc.InitialFill(out1.Lower(), cfg.Consumer.Upper(), h)
	check(err)
	init2, err := rtc.InitialFill(out2.Lower(), cfg.Consumer.Upper(), h)
	check(err)
	d, err := rtc.DivergenceThreshold(out1.Upper(), out1.Lower(), out2.Upper(), out2.Lower(), h)
	check(err)
	fmt.Printf("radar sizing: |R|=(%d,%d) |S|0=(%d,%d) D=%d\n", rcap1, rcap2, init1, init2, d)

	var scansWithTargets, total int
	net, err := apps.RadarNetwork(cfg, func(now des.Time, tok kpn.Token) {
		if tok.Seq <= 0 {
			return
		}
		total++
		dets, err := apps.DetectionsFromToken(tok)
		check(err)
		hits := 0
		for _, target := range cfg.Targets {
			for _, det := range dets {
				if det.Cell >= target+cfg.PulseLen-10 && det.Cell <= target+cfg.PulseLen+10 {
					hits++
					break
				}
			}
		}
		if hits == len(cfg.Targets) {
			scansWithTargets++
		}
	})
	check(err)

	k := des.NewKernel()
	sys, err := ft.Build(k, net, ft.BuildConfig{
		ReplicatorCaps: map[string][2]int{"F_in": {int(rcap1), int(rcap2)}},
		ReplicatorD:    map[string]int64{"F_in": d},
		SelectorCaps:   map[string][2]int{"F_out": {2 * int(init1), 2 * int(init2)}},
		SelectorInits:  map[string][2]int{"F_out": {int(init1), int(init2)}},
		SelectorD:      map[string]int64{"F_out": d},
	})
	check(err)
	sys.AddFaultHook(func(f ft.Fault) {
		fmt.Printf("t=%8.1f ms  DETECTED %s\n", float64(f.At)/1000, f)
	})
	injectAt := des.Time(*scans/2) * cfg.Producer.Period
	sys.InjectFault(1, injectAt, fault.StopAll, 0)
	fmt.Printf("t=%8.1f ms  replica 1 stops mid-scan\n", float64(injectAt)/1000)
	k.Run(0)
	k.Shutdown()

	if _, ok := sys.FirstFault(1); !ok {
		panic("fault not detected")
	}
	fmt.Printf("tracker received %d scans; both targets present in %d (%.1f%%)\n",
		total, scansWithTargets, 100*float64(scansWithTargets)/float64(total))
	fmt.Printf("false positives: %d\n", len(sys.FalsePositives()))
	if scansWithTargets < total*9/10 {
		panic("target tracking degraded despite fault tolerance")
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

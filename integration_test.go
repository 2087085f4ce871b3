package ftpn

// Cross-package integration tests: end-to-end properties that span the
// simulator, the platform model, the applications and the framework.

import (
	"testing"

	"ftpn/internal/apps"
	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
	"ftpn/internal/scc"
)

// TestMJPEGOnSCCFaultTolerantEndToEnd is the headline integration: the
// MJPEG decoder with real frames on the simulated SCC, analytically
// sized, surviving a stop fault with a bit-identical consumer stream.
func TestMJPEGOnSCCFaultTolerantEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	app := exp.MJPEGApp(false, 150)
	sizing, err := exp.ComputeSizing(app)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := scc.New(scc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	run := func(withFault bool) ([]uint64, *ft.System) {
		var hashes []uint64
		net, err := app.Build(func(now des.Time, tok kpn.Token) {
			if tok.Seq > 0 {
				hashes = append(hashes, tok.Hash())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sizing.BuildConfig(app)
		cfg.Chip = chip
		k := des.NewKernel()
		sys, err := ft.Build(k, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if withFault {
			sys.InjectFault(2, 75*app.PeriodUs, fault.StopAll, 0)
		}
		k.Run(0)
		k.Shutdown()
		return hashes, sys
	}

	clean, cleanSys := run(false)
	faulty, faultySys := run(true)

	if len(cleanSys.Faults) != 0 {
		t.Fatalf("fault-free run convicted: %v", cleanSys.Faults)
	}
	if _, ok := faultySys.FirstFault(2); !ok {
		t.Fatal("stop fault not detected on the SCC instance")
	}
	if fp := faultySys.FalsePositives(); len(fp) != 0 {
		t.Fatalf("false positives: %v", fp)
	}
	if len(clean) != len(faulty) {
		t.Fatalf("stream lengths differ: %d vs %d", len(clean), len(faulty))
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("frame %d differs between fault-free and faulty runs", i)
		}
	}
}

// TestTransientFaultToleratedAndLatched: a replica pauses and resumes
// (beyond the paper's permanent model). The consumer stream is
// unaffected, the conviction stays latched, and the resumed replica's
// stale tokens are absorbed as late duplicates.
func TestTransientFaultToleratedAndLatched(t *testing.T) {
	app := exp.ADPCMApp(false, 200)
	sizing, err := exp.ComputeSizing(app)
	if err != nil {
		t.Fatal(err)
	}
	var count int
	net, err := app.Build(func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			count++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, sizing.BuildConfig(app))
	if err != nil {
		t.Fatal(err)
	}
	inject := 80 * app.PeriodUs
	sys.InjectFault(1, inject, fault.StopAll, 0)
	sys.Switches[0].RepairAt(inject + 40*app.PeriodUs)
	k.Run(0)
	k.Shutdown()

	f, ok := sys.FirstFault(1)
	if !ok {
		t.Fatal("transient fault not detected")
	}
	if f.At < inject {
		t.Fatalf("detected at %d before injection %d", f.At, inject)
	}
	if faulty, _, _ := sys.Selectors["F_out"].Faulty(1); !faulty {
		t.Error("conviction must stay latched after repair")
	}
	if fp := sys.FalsePositives(); len(fp) != 0 {
		t.Errorf("false positives: %v", fp)
	}
	want := int(app.Tokens) - sizing.SelInits[0]
	if sizing.SelInits[1] > sizing.SelInits[0] {
		want = int(app.Tokens) - sizing.SelInits[1]
	}
	if count < want-1 || count > want+1 {
		t.Errorf("consumer saw %d produced tokens, want about %d", count, want)
	}
	// The resumed replica's late tokens were dropped, not delivered twice.
	sel := sys.Selectors["F_out"]
	if sel.Drops(1) == 0 {
		t.Error("resumed replica's stale tokens should surface as dropped duplicates")
	}
}

// TestThreeReplicaSystemToleratesTwoFaults wires the paper's n-replica
// generalization by hand: three diversified replicas behind an
// three-way replicator/selector pair survive two staggered stop faults.
func TestThreeReplicaSystemToleratesTwoFaults(t *testing.T) {
	k := des.NewKernel()
	period := des.Time(1000)
	nrep := ft.NewNReplicator(k, "R", []int{4, 4, 4}, nil)
	nsel := ft.NewNSelector(k, "S", []int{8, 8, 8}, []int{3, 3, 3}, 5, nil, nil)

	switches := make([]*fault.Switch, 3)
	for r := 1; r <= 3; r++ {
		r := r
		switches[r-1] = fault.NewSwitch(k)
		in := fault.GateRead(nrep.ReaderPort(r), switches[r-1])
		out := fault.GateWrite(nsel.WriterPort(r), switches[r-1])
		work := kpn.WorkModel{BaseUs: 200, JitterUs: des.Time(r) * 100}
		behavior := kpn.Transform(work, int64(40+r), nil)
		kpn.Spawn(k, "rep", behavior, []kpn.ReadPort{in}, []kpn.WritePort{out})
	}
	const tokens = 300
	prod := kpn.Producer(rtc.PJD{Period: period, Jitter: 50}, 1, tokens, nil)
	kpn.Spawn(k, "P", prod, nil, []kpn.WritePort{nrep.WriterPort()})
	var consumed int
	cons := kpn.Consumer(rtc.PJD{Period: period, Jitter: 50}, 2, tokens, func(now des.Time, tok kpn.Token) {
		consumed++
	})
	kpn.Spawn(k, "C", cons, []kpn.ReadPort{nsel.ReaderPort()}, nil)

	switches[0].InjectAt(100*period, fault.StopAll, fault.Gray{})
	switches[2].InjectAt(180*period, fault.StopAll, fault.Gray{})
	k.Run(0)
	k.Shutdown()

	if consumed != tokens {
		t.Fatalf("consumer got %d tokens, want %d", consumed, tokens)
	}
	ok1, _, _ := nrep.Faulty(1)
	ok3, _, _ := nrep.Faulty(3)
	if !ok1 || !ok3 {
		t.Errorf("replicator convictions: R1=%v R3=%v, want both", ok1, ok3)
	}
	if ok2, _, _ := nrep.Faulty(2); ok2 {
		t.Error("surviving replica convicted at the replicator")
	}
	if ok2, _, _ := nsel.Faulty(2); ok2 {
		t.Error("surviving replica convicted at the selector")
	}
}

// TestStrictReplicatorTheorem2: in strict mode with never-overflowing
// queues, the duplicated ADPCM network is timing-equivalent to the
// reference — consumer arrival instants match exactly.
func TestStrictReplicatorTheorem2(t *testing.T) {
	cfg := apps.DefaultADPCMConfig()
	cfg.Blocks = 100

	var refArr []des.Time
	refNet, err := apps.ADPCMNetwork(cfg, func(now des.Time, tok kpn.Token) { refArr = append(refArr, now) })
	if err != nil {
		t.Fatal(err)
	}
	k1 := des.NewKernel()
	if _, err := refNet.Instantiate(k1); err != nil {
		t.Fatal(err)
	}
	k1.Run(0)
	k1.Shutdown()

	var dupArr []des.Time
	dupNet, err := apps.ADPCMNetwork(cfg, func(now des.Time, tok kpn.Token) { dupArr = append(dupArr, now) })
	if err != nil {
		t.Fatal(err)
	}
	k2 := des.NewKernel()
	sys, err := ft.Build(k2, dupNet, ft.BuildConfig{
		ReplicatorCaps: map[string][2]int{"F_in": {64, 64}}, // effectively unbounded
		SelectorCaps:   map[string][2]int{"F_out": {16, 16}},
		SelectorInits:  map[string][2]int{"F_out": {4, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Replicators["F_in"].Strict = true
	k2.Run(0)
	k2.Shutdown()

	if len(refArr) != len(dupArr) {
		t.Fatalf("arrival counts differ: %d vs %d", len(refArr), len(dupArr))
	}
	for i := range refArr {
		if refArr[i] != dupArr[i] {
			t.Fatalf("arrival %d: reference t=%d, duplicated t=%d (Theorem 2 timing equivalence violated)",
				i, refArr[i], dupArr[i])
		}
	}
}

// TestSizingMatchesPaperTable2MJPEG pins the analytic design for the
// MJPEG configuration to the paper's exact Table 2 values.
func TestSizingMatchesPaperTable2MJPEG(t *testing.T) {
	s, err := exp.ComputeSizing(exp.MJPEGApp(false, 10))
	if err != nil {
		t.Fatal(err)
	}
	if s.RepCaps != [2]int{2, 3} {
		t.Errorf("|R| = %v, paper has (2,3)", s.RepCaps)
	}
	if s.SelCaps != [2]int{4, 6} || s.SelInits != [2]int{2, 3} {
		t.Errorf("|S| = %v |S|0 = %v, paper has (4,6)/(2,3)", s.SelCaps, s.SelInits)
	}
}

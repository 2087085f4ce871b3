package main

import (
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/recover"
)

// campaignCells are the (app, workload length) cells exp.ScenarioFor
// draws from; each is run at both jitter tiers. The oracle cross-check
// in bench_test.go fails if they drift from exp's campaign table.
var campaignCells = []struct {
	app    string
	tokens int64
}{
	{"adpcm", 220}, {"radar", 170}, {"mjpeg", 150}, {"h264", 150},
}

// cellKey indexes a golden cell.
type cellKey struct {
	app       string
	minJitter bool
}

// golden is one cell's fault-free reference: the App (whose payload
// memo the golden run warmed), its analytic sizing and consumer stream.
type golden struct {
	app    exp.App
	sizing exp.Sizing
	stream []tokenID
}

// runGolden builds app fresh, sizes it without the sizing cache and runs
// it fault-free, recording the consumer stream.
func runGolden(name string, minJitter bool, tokens int64) (*golden, error) {
	app, err := exp.AppByName(name, minJitter, tokens)
	if err != nil {
		return nil, err
	}
	sizing, err := exp.ComputeSizing(app)
	if err != nil {
		return nil, err
	}
	g := &golden{app: app, sizing: sizing}
	net, err := app.Build(func(_ des.Time, tok kpn.Token) {
		g.stream = append(g.stream, tokenID{tok.Seq, tok.Hash()})
	})
	if err != nil {
		return nil, err
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, sizing.BuildConfig(app))
	if err != nil {
		return nil, err
	}
	k.Run(0)
	k.Shutdown()
	if len(sys.Faults) != 0 {
		return nil, fmt.Errorf("golden run of %s convicted %v", name, sys.Faults[0])
	}
	return g, nil
}

// campaignBench replays exp's randomized fault-injection campaign: op i
// is exp.ScenarioFor(seed, i) against its cell's warm golden.
type campaignBench struct {
	seed  int64
	cells map[cellKey]*golden
}

// setupCampaign builds the eight golden cells: apps, sizing, golden runs
// and the payload memos those runs warm.
func setupCampaign(seed int64) (bench, error) {
	b := &campaignBench{seed: seed, cells: map[cellKey]*golden{}}
	for _, c := range campaignCells {
		for _, mj := range []bool{false, true} {
			g, err := runGolden(c.app, mj, c.tokens)
			if err != nil {
				return nil, err
			}
			b.cells[cellKey{c.app, mj}] = g
		}
	}
	return b, nil
}

func (b *campaignBench) measure(mc measureConfig) (*measurement, error) {
	return runDES(mc, b.op)
}

// op executes one scenario with a recovery manager attached and checks
// the campaign invariants: exact masking, no false or spurious
// convictions, stop-mode detection within the analytic bound, one
// complete recovery, detection of the second fault, Lemma 1 and the
// channel counter identities.
func (b *campaignBench) op(i int, tr *tracer) opResult {
	var res opResult
	sc := exp.ScenarioFor(b.seed, i)
	g := b.cells[cellKey{sc.App, sc.MinJitter}]
	if g == nil || g.app.Tokens != sc.Tokens {
		res.fail("no golden cell for %s (min jitter %v, %d tokens)", sc.App, sc.MinJitter, sc.Tokens)
		return res
	}
	mode, ok1 := fault.ModeByName(sc.Mode)
	mode2, ok2 := fault.ModeByName(sc.SecondMode)
	if !ok1 || !ok2 {
		res.fail("unknown fault mode %q/%q", sc.Mode, sc.SecondMode)
		return res
	}
	app := g.app

	sp := tr.begin("kpn.build")
	stream := make([]tokenID, 0, len(g.stream))
	net, err := app.Build(func(_ des.Time, tok kpn.Token) {
		stream = append(stream, tokenID{tok.Seq, tok.Hash()})
	})
	tr.end(sp)
	if err != nil {
		res.fail("build: %v", err)
		return res
	}
	k := des.NewKernel()
	tr.attach(k)
	sp = tr.begin("ft.build")
	sys, err := ft.Build(k, net, g.sizing.BuildConfig(app))
	tr.end(sp)
	if err != nil {
		res.fail("ft build: %v", err)
		return res
	}
	mgr := recover.NewManager(sys, recover.Plan{Delay: sc.DelayUs, MaxRecoveries: 1})

	// The second fault lands a settle time after the first recovery,
	// unless too little stream remains for another detection arc.
	target2 := sc.Replica
	if sc.SecondOther {
		target2 = 3 - sc.Replica
	}
	streamEndUs := des.Time(sc.Tokens) * app.PeriodUs
	var inject2At des.Time = -1
	mgr.OnRecovered = func(ev recover.Event) {
		if ev.Replica != sc.Replica || inject2At >= 0 {
			return
		}
		at := ev.RecoveredAt + sc.SettleUs
		if at > streamEndUs-25*app.PeriodUs {
			return
		}
		inject2At = at
		sys.InjectFault(target2, at, mode2, 0)
	}
	sys.InjectFault(sc.Replica, sc.InjectUs, mode, sc.ExtraUs)
	sp = tr.begin("des.run")
	k.Run(0)
	k.Shutdown()
	tr.end(sp)

	sp = tr.begin("bench.check")
	defer tr.end(sp)
	res.tokens = int64(len(stream))
	res.counts = systemCounts(sys)
	res.counts.events = k.Dispatched()
	res.counts.recoveries = int64(len(mgr.Events()))
	res.requireWork()
	if d := sameStream(stream, g.stream); d != "" {
		res.fail("%s", d)
	}

	recoveredAt := des.Time(-1)
	for _, ev := range mgr.Events() {
		if ev.Replica == sc.Replica && recoveredAt < 0 {
			recoveredAt = ev.RecoveredAt
			res.arcs.recovered = 1
			if !ev.Complete {
				res.fail("re-integration of R%d incomplete on some channel", sc.Replica)
			}
		}
	}
	if inject2At >= 0 {
		res.arcs.secondInjected = 1
	}

	healthy := 3 - sc.Replica
	for _, f := range sys.Faults {
		switch f.Replica {
		case sc.Replica:
			if recoveredAt >= 0 && f.At > recoveredAt && (inject2At < 0 || !(!sc.SecondOther && f.At >= inject2At)) {
				res.fail("R%d re-convicted at %dus inside the recovered window (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
			}
		case healthy:
			if !sc.SecondOther || inject2At < 0 || f.At < inject2At {
				res.fail("healthy replica R%d convicted at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
			}
		}
	}

	first, ok := sys.FirstFault(sc.Replica)
	if !ok || first.At < sc.InjectUs {
		res.fail("fault injected at %dus was never detected", sc.InjectUs)
	} else {
		res.arcs.detected = 1
		latency := first.At - sc.InjectUs
		var bound des.Time
		switch mode {
		case fault.StopAll:
			bound = min(g.sizing.SelBoundUs, g.sizing.RepBoundUs)
		case fault.StopProducing:
			bound = g.sizing.SelBoundUs
		case fault.StopConsuming:
			bound = g.sizing.RepBoundUs
		}
		if bound > 0 && latency > bound {
			res.fail("detection latency %dus exceeds analytic bound %dus (%s)", latency, bound, sc.Mode)
		}
	}
	if res.arcs.detected == 1 && recoveredAt < 0 {
		res.fail("detected fault was never recovered")
	}
	if n := len(mgr.Events()); n > 2 || (!sc.SecondOther && n > 1) {
		res.fail("%d recoveries, budget allows at most one per replica", n)
	}

	if inject2At >= 0 {
		for _, f := range sys.Faults {
			if f.Replica == target2 && f.At >= inject2At {
				res.arcs.secondDetected = 1
				break
			}
		}
		if res.arcs.secondDetected == 0 {
			res.fail("second fault on R%d at %dus was not detected (redundancy not restored)", target2, inject2At)
		}
	}

	if !sc.SecondOther {
		if w := sys.Selectors[app.OutChan].Writes(healthy); w != sc.Tokens {
			res.fail("healthy replica wrote %d of %d tokens (back-pressured)", w, sc.Tokens)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		res.fail("counter invariants: %v", err)
	}
	if len(res.problems) > 0 {
		res.arcs.violating = 1
	}

	h := streamDigest(fnvOffset, stream)
	for _, f := range sys.Faults {
		h = fnvAdd(fnvAdd(h, uint64(f.Replica)), uint64(f.At))
	}
	for _, ev := range mgr.Events() {
		h = fnvAdd(fnvAdd(h, uint64(ev.Replica)), uint64(ev.RecoveredAt))
	}
	res.digest = h
	return res
}

// systemCounts reads the arbitration channels' public counters.
func systemCounts(sys *ft.System) counts {
	var c counts
	for _, r := range sys.Replicators {
		c.chanOps += r.Writes() + r.Reads(1) + r.Reads(2)
	}
	for _, s := range sys.Selectors {
		for r := 1; r <= 2; r++ {
			c.selWrites += s.Writes(r)
			c.selQueued += s.Writes(r) - s.Drops(r)
		}
		c.chanOps += s.Writes(1) + s.Writes(2) + s.Reads()
	}
	return c
}

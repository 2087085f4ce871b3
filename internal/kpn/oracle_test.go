package kpn_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
	"ftpn/internal/scc"
)

// The oracle pair runs a duplicated paper app twice on fresh kernels:
// once as built (step machines behind retryable try-form ports), once
// with every behavior as its coroutine oracle (kpn.OracleBody) behind
// oracle ports that keep the blocking code the try forms replaced — the
// fault gates over an oracle copy of the switch, and the SCC transfer
// delays. Both runs must agree event for event.

// oracleSwitch is a copy of fault.Switch's fault state as the blocking
// gates read it. delaying counts gated operations inside a fault delay,
// so a test can tell where a repair landed.
type oracleSwitch struct {
	k        *des.Kernel
	mode     fault.Mode
	extraUs  des.Time
	at       des.Time
	gray     fault.Gray
	ops      int64
	blocked  des.Signal
	delaying int
	// repairs records, for each repair, whether it landed inside a
	// Drift, Burst or Degrade delay of some gated operation.
	repairs []bool
}

func (s *oracleSwitch) inject(mode fault.Mode, g fault.Gray) {
	if s.mode != fault.None || mode == fault.None {
		return
	}
	if mode == fault.Burst && g.PeriodUs > 0 && g.OnUs >= g.PeriodUs {
		g.OnUs = g.PeriodUs - 1
	}
	s.gray, s.ops = g, 0
	s.mode, s.extraUs, s.at = mode, g.ExtraUs, s.k.Now()
}

func (s *oracleSwitch) repair() {
	if s.mode == fault.None {
		return
	}
	s.repairs = append(s.repairs, s.delaying > 0)
	s.mode, s.extraUs, s.gray, s.ops = fault.None, 0, fault.Gray{}, 0
	s.k.Broadcast(&s.blocked)
}

func oracleStopsReads(m fault.Mode) bool  { return m == fault.StopConsuming || m == fault.StopAll }
func oracleStopsWrites(m fault.Mode) bool { return m == fault.StopProducing || m == fault.StopAll }

func (s *oracleSwitch) delay(p *des.Proc, d des.Time) {
	s.delaying++
	p.Delay(d)
	s.delaying--
}

func (s *oracleSwitch) blockWhileStopped(p *des.Proc, stops func(fault.Mode) bool) {
	for stops(s.mode) {
		p.Wait(&s.blocked)
	}
}

// gate is the blocking pre-operation fault gate: stop, gray, degrade.
func (s *oracleSwitch) gate(p *des.Proc, stops func(fault.Mode) bool) {
	s.blockWhileStopped(p, stops)
	switch s.mode {
	case fault.Drift:
		extra := s.gray.ExtraUs
		if ramp := s.gray.RampUs; ramp > 0 {
			if elapsed := s.k.Now() - s.at; elapsed < ramp {
				extra = extra * elapsed / ramp
			}
		}
		if extra > 0 {
			s.delay(p, extra)
		}
	case fault.Burst:
		if period := s.gray.PeriodUs; period > 0 {
			for s.mode == fault.Burst {
				phase := (s.k.Now() - s.at) % period
				if phase >= s.gray.OnUs {
					break
				}
				s.delay(p, s.gray.OnUs-phase)
			}
		}
	}
	if s.mode == fault.Degrade {
		s.delay(p, s.extraUs)
	}
}

func (s *oracleSwitch) transformWrite(tok kpn.Token) (kpn.Token, bool) {
	nth := func() bool {
		n := int64(s.gray.EveryN)
		return n <= 1 || s.ops%n == 0
	}
	switch s.mode {
	case fault.DropTokens:
		s.ops++
		return tok, nth()
	case fault.Corrupt:
		s.ops++
		if nth() && len(tok.Payload) > 0 {
			corrupt := append([]byte(nil), tok.Payload...)
			idx := int((s.gray.Seed + uint64(s.ops)) % uint64(len(corrupt)))
			corrupt[idx] ^= 0x5A
			tok.Payload = corrupt
		}
	}
	return tok, false
}

// oracleReadGate and oracleWriteGate are the blocking fault gates; the
// oracle runs only block, so their try forms are never called.
type oracleReadGate struct {
	kpn.ReadPort
	sw *oracleSwitch
}

func (g oracleReadGate) TryRead() (kpn.Token, des.Wait, bool) { panic("oracle ports only block") }

func (g oracleReadGate) Read(p *des.Proc) kpn.Token {
	g.sw.gate(p, oracleStopsReads)
	tok := g.ReadPort.Read(p)
	g.sw.blockWhileStopped(p, oracleStopsReads)
	return tok
}

type oracleWriteGate struct {
	kpn.WritePort
	sw *oracleSwitch
}

func (g oracleWriteGate) TryWrite(kpn.Token) (des.Wait, bool) { panic("oracle ports only block") }

func (g oracleWriteGate) Write(p *des.Proc, tok kpn.Token) {
	g.sw.gate(p, oracleStopsWrites)
	tok, drop := g.sw.transformWrite(tok)
	if !drop {
		g.WritePort.Write(p, tok)
	}
}

// oracleTransfer is the blocking SCC transfer delay of a write; with
// read set, of a read instead.
type oracleTransfer struct {
	r        kpn.ReadPort
	w        kpn.WritePort
	chip     *scc.Chip
	from, to *scc.Core
	bytes    int
}

func (t *oracleTransfer) cost(tok kpn.Token) des.Time {
	bytes := tok.Size()
	if bytes == 0 {
		bytes = t.bytes
	}
	return t.chip.TransferTime(t.from, t.to, bytes)
}

func (t *oracleTransfer) PortName() string                     { return "oracle-transfer" }
func (t *oracleTransfer) TryRead() (kpn.Token, des.Wait, bool) { panic("oracle ports only block") }
func (t *oracleTransfer) TryWrite(kpn.Token) (des.Wait, bool)  { panic("oracle ports only block") }

func (t *oracleTransfer) Read(p *des.Proc) kpn.Token {
	tok := t.r.Read(p)
	p.Delay(t.cost(tok))
	return tok
}

func (t *oracleTransfer) Write(p *des.Proc, tok kpn.Token) {
	p.Delay(t.cost(tok))
	t.w.Write(p, tok)
}

// oracleNetwork returns net with every behavior replaced by its
// coroutine oracle, bound to oracle ports: the gates of replica r over
// sws[r-1] and, when chip is set, the transfers ft.Build would add. The
// oracle run builds the system without a chip, so the built gates stay
// healthy and the built ports pass every operation straight through.
func oracleNetwork(net *kpn.Network, chip *scc.Chip, sws [2]*oracleSwitch) (*kpn.Network, error) {
	roles := map[string]kpn.Role{}
	var placed []string // ft.Build's placement order
	for _, p := range net.Procs {
		roles[p.Name] = p.Role
		if p.Role == kpn.RoleCritical {
			placed = append(placed, p.Name+"#1", p.Name+"#2")
		} else {
			placed = append(placed, p.Name)
		}
	}
	cores := map[string]*scc.Core{}
	if chip != nil {
		cs, err := chip.MapPipeline(len(placed))
		if err != nil {
			return nil, err
		}
		for i, n := range placed {
			cores[n] = cs[i]
		}
	}
	instance := func(proc string, r int) string {
		if roles[proc] == kpn.RoleCritical {
			return fmt.Sprintf("%s#%d", proc, r)
		}
		return proc
	}
	out := *net
	out.Procs = slices.Clone(net.Procs)
	for i := range out.Procs {
		name, factory := out.Procs[i].Name, out.Procs[i].New
		out.Procs[i].New = func(r int) kpn.Behavior {
			body := kpn.OracleBody(factory(r))
			return kpn.Body(func(p *des.Proc, in []kpn.ReadPort, outs []kpn.WritePort) {
				self := instance(name, r)
				ins := slices.Clone(in)
				for j, c := range net.Inputs(name) {
					if roles[name] != kpn.RoleCritical || roles[c.From] == kpn.RoleCritical {
						continue // only replicator reads cross the gate
					}
					if chip != nil {
						ins[j] = &oracleTransfer{r: ins[j], chip: chip, from: cores[c.From], to: cores[self], bytes: c.TokenBytes}
					}
					ins[j] = oracleReadGate{ins[j], sws[r-1]}
				}
				os := slices.Clone(outs)
				for j, c := range net.Outputs(name) {
					toCrit := roles[c.To] == kpn.RoleCritical
					if roles[name] != kpn.RoleCritical && toCrit {
						continue // replicator writes are local
					}
					if chip != nil {
						os[j] = &oracleTransfer{w: os[j], chip: chip, from: cores[self], to: cores[instance(c.To, r)], bytes: c.TokenBytes}
					}
					if roles[name] == kpn.RoleCritical && !toCrit {
						os[j] = oracleWriteGate{os[j], sws[r-1]}
					}
				}
				body(p, ins, os)
			})
		}
	}
	return &out, nil
}

// faultStep is one scheduled switch action on a replica: an injection
// of mode with g, or a repair (mode None).
type faultStep struct {
	replica int
	at      des.Time
	mode    fault.Mode
	g       fault.Gray
}

// pairRun is what one run of the pair leaves to compare.
type pairRun struct {
	trace   []des.TraceEvent
	stream  [][3]int64 // consumer's (arrival, Seq, hash)
	faults  []ft.Fault
	repairs []bool // per repair: landed inside a gate delay (oracle only)
}

// runPair runs app under the fault steps, as built (oracle false) or on
// the oracle bodies and ports.
func runPair(t testing.TB, app exp.App, sizing exp.Sizing, chip *scc.Chip, steps []faultStep, oracle bool) pairRun {
	var res pairRun
	net, err := app.Build(func(now des.Time, tok kpn.Token) {
		res.stream = append(res.stream, [3]int64{now, tok.Seq, int64(tok.Hash())})
	})
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	k.Trace(func(e des.TraceEvent) { res.trace = append(res.trace, e) })
	cfg := sizing.BuildConfig(app)
	sws := [2]*oracleSwitch{{k: k}, {k: k}}
	if oracle {
		if net, err = oracleNetwork(net, chip, sws); err != nil {
			t.Fatal(err)
		}
	} else {
		cfg.Chip = chip
	}
	sys, err := ft.Build(k, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		sw, osw, st := sys.Switches[st.replica-1], sws[st.replica-1], st
		switch {
		case st.mode == fault.None && oracle:
			k.At(st.at, osw.repair)
		case st.mode == fault.None:
			sw.RepairAt(st.at)
		case oracle:
			k.At(st.at, func() { osw.inject(st.mode, st.g) })
		default:
			sw.InjectAt(st.at, st.mode, st.g)
		}
	}
	k.Run(0)
	k.Shutdown()
	res.faults = sys.Faults
	res.repairs = append(sws[0].repairs, sws[1].repairs...)
	return res
}

// checkPair runs the pair and fails t on the first difference. It
// returns the oracle run's repair placements.
func checkPair(t testing.TB, label string, app exp.App, sizing exp.Sizing, chip *scc.Chip, steps []faultStep) []bool {
	t.Helper()
	got := runPair(t, app, sizing, chip, steps, false)
	want := runPair(t, app, sizing, chip, steps, true)
	if len(want.stream) == 0 {
		t.Errorf("%s: the consumer saw no token", label)
	}
	if i, ok := firstDiff(got.trace, want.trace); !ok {
		t.Errorf("%s: trace event %d differs: step %v, oracle %v (lengths %d, %d)",
			label, i, at(got.trace, i), at(want.trace, i), len(got.trace), len(want.trace))
	}
	if i, ok := firstDiff(got.stream, want.stream); !ok {
		t.Errorf("%s: consumer token %d differs: step %v, oracle %v (lengths %d, %d)",
			label, i, at(got.stream, i), at(want.stream, i), len(got.stream), len(want.stream))
	}
	if !reflect.DeepEqual(got.faults, want.faults) {
		t.Errorf("%s: faults differ:\nstep   %v\noracle %v", label, got.faults, want.faults)
	}
	return want.repairs
}

func firstDiff[T comparable](a, b []T) (int, bool) {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

func at[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "none"
}

// pairApps holds the paper apps the pair runs, built once per test
// binary: each App carries its payload memo, so later runs reuse the
// codec outputs of the first.
var pairApps = sync.OnceValues(func() (map[string]pairApp, error) {
	out := map[string]pairApp{}
	for _, name := range []string{"mjpeg", "adpcm", "h264", "radar"} {
		app, err := exp.AppByName(name, false, 48)
		if err != nil {
			return nil, err
		}
		sizing, err := exp.SizingFor(app)
		if err != nil {
			return nil, err
		}
		out[name] = pairApp{app, sizing}
	}
	return out, nil
})

type pairApp struct {
	app    exp.App
	sizing exp.Sizing
}

// pairSchedules are the fault schedules of TestStepFormsMatchOracle,
// in periods of the app: every fault mode, and repairs with a
// re-injection that land while gated operations sit in a Drift, Burst
// or Degrade delay.
func pairSchedules(period des.Time) map[string][]faultStep {
	p := func(x float64) des.Time { return des.Time(x * float64(period)) }
	degrade := fault.Gray{ExtraUs: p(2.5)}
	drift := fault.Gray{ExtraUs: p(3), RampUs: p(12)}
	burst := fault.Gray{OnUs: p(3.5), PeriodUs: p(7)}
	return map[string][]faultStep{
		"none":           nil,
		"stop-consuming": {{replica: 1, at: p(9.3), mode: fault.StopConsuming}},
		"stop-producing": {{replica: 2, at: p(9.3), mode: fault.StopProducing}},
		"stop-all":       {{replica: 1, at: p(11.7), mode: fault.StopAll}},
		"degrade":        {{replica: 2, at: p(8.2), mode: fault.Degrade, g: degrade}},
		"drift":          {{replica: 1, at: p(6.4), mode: fault.Drift, g: drift}},
		"burst":          {{replica: 2, at: p(7.1), mode: fault.Burst, g: burst}},
		"drop-tokens":    {{replica: 1, at: p(5.5), mode: fault.DropTokens, g: fault.Gray{EveryN: 3}}},
		"corrupt":        {{replica: 2, at: p(5.5), mode: fault.Corrupt, g: fault.Gray{EveryN: 2, Seed: 7}}},
		"stop-repair": {
			{replica: 1, at: p(8.5), mode: fault.StopAll},
			{replica: 1, at: p(13.25)},
			{replica: 1, at: p(20.6), mode: fault.StopProducing},
		},
		"degrade-repair": {
			{replica: 1, at: p(8.2), mode: fault.Degrade, g: degrade},
			{replica: 1, at: p(15.4)},
			{replica: 1, at: p(15.45), mode: fault.Degrade, g: fault.Gray{ExtraUs: p(1.5)}},
		},
		"drift-repair": {
			{replica: 2, at: p(6.4), mode: fault.Drift, g: drift},
			{replica: 2, at: p(16.9)},
			{replica: 2, at: p(17.0), mode: fault.Burst, g: burst},
		},
		"burst-repair": {
			{replica: 1, at: p(7.1), mode: fault.Burst, g: burst},
			{replica: 1, at: p(8.3)},
			{replica: 1, at: p(8.35), mode: fault.Degrade, g: degrade},
		},
	}
}

// TestStepFormsMatchOracle runs each paper app, with and without an SCC
// chip, under every fault mode and under repairs with re-injections, as
// step machines and as their coroutine oracles: the trace, the consumer
// stream and the detections must be identical.
func TestStepFormsMatchOracle(t *testing.T) {
	apps, err := pairApps()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := scc.New(scc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	insideDelay := map[string]bool{}
	for _, name := range []string{"mjpeg", "adpcm", "h264"} {
		a := apps[name]
		for sched, steps := range pairSchedules(a.app.PeriodUs) {
			for _, c := range []*scc.Chip{nil, chip} {
				label := fmt.Sprintf("%s/%s/chip=%v", name, sched, c != nil)
				for _, inside := range checkPair(t, label, a.app, a.sizing, c, steps) {
					insideDelay[sched] = insideDelay[sched] || inside
				}
			}
		}
	}
	for _, sched := range []string{"degrade-repair", "drift-repair", "burst-repair"} {
		if !insideDelay[sched] {
			t.Errorf("%s: no repair landed inside a gate delay", sched)
		}
	}
}

// TestStepFormsMatchOracleUnderBackpressure runs a reference network of
// every step-machine behavior over capacity-1 channels and a consumer
// that stops early, so producers and stages block in the middle of
// their writes, as built and on the oracle loops.
func TestStepFormsMatchOracleUnderBackpressure(t *testing.T) {
	run := func(oracle bool) ([]des.TraceEvent, []string, []string) {
		memo := kpn.NewPayloadMemo()
		var log []string
		sink := func(name string) func(des.Time, kpn.Token) {
			return func(now des.Time, tok kpn.Token) {
				log = append(log, fmt.Sprintf("%s@%d:%d/%d/%x", name, now, tok.Seq, tok.Stamp, tok.Hash()))
			}
		}
		tag := func(b byte) func(int64, []byte) []byte {
			return func(i int64, in []byte) []byte { return append([]byte{b, byte(i)}, in...) }
		}
		behaviors := map[string]kpn.Behavior{
			"P": kpn.Producer(rtcPJD(10, 4), 1, 60, func(i int64) []byte { return []byte{byte(i), byte(i >> 8)} }),
			"T": kpn.Transform(kpn.WorkModel{BaseUs: 15, JitterUs: 10}, 3, tag('t')),
			"S": kpn.MemoStage(kpn.WorkModel{BaseUs: 5, PerKBUs: 100, JitterUs: 20}, 4, memo, "s", func(i int64, ins [][]byte) []byte {
				return append(slices.Clone(ins[0]), ins[1]...)
			}),
			"M": kpn.MemoTransform(kpn.WorkModel{BaseUs: 12, JitterUs: 30}, 5, memo, "m", tag('m')),
			"D": kpn.Stage(kpn.WorkModel{BaseUs: 4, JitterUs: 6}, 9, 1, 2, func(i int64, in, out []kpn.Token) {
				half := len(in[0].Payload) / 2
				out[0] = kpn.Token{Seq: in[0].Seq, Payload: in[0].Payload[:half]}
				out[1] = kpn.Token{Seq: i, Payload: in[0].Payload[half:]}
			}),
			"C1": kpn.Consumer(rtcPJD(25, 10), 6, 0, sink("C1")),
			"C2": kpn.Consumer(rtcPJD(40, 0), 7, 30, sink("C2")),
			"C3": kpn.Consumer(rtcPJD(10, 0), 8, 0, sink("C3")), // sees the producer's stamps
			"C4": kpn.Consumer(rtcPJD(30, 5), 10, 0, sink("C4")),
		}
		net := &kpn.Network{Name: "backpressure", Chans: []kpn.ChannelSpec{
			{Name: "a", From: "P", To: "T", Capacity: 1},
			{Name: "b", From: "P", To: "S", Capacity: 1},
			{Name: "c", From: "T", To: "S", Capacity: 1},
			{Name: "d", From: "S", To: "M", Capacity: 1},
			{Name: "e", From: "S", To: "D", Capacity: 1},
			{Name: "e1", From: "D", To: "C2", Capacity: 2},
			{Name: "e2", From: "D", To: "C4", Capacity: 1},
			{Name: "g", From: "M", To: "C1", Capacity: 2},
			{Name: "x", From: "P", To: "C3", Capacity: 4},
		}}
		for _, name := range []string{"P", "T", "S", "M", "D", "C1", "C2", "C3", "C4"} {
			b := behaviors[name]
			if oracle {
				b = kpn.OracleBody(b)
			}
			net.Procs = append(net.Procs, kpn.ProcessSpec{Name: name, New: func(int) kpn.Behavior { return b }})
		}
		k := des.NewKernel()
		var trace []des.TraceEvent
		k.Trace(func(e des.TraceEvent) { trace = append(trace, e) })
		if _, err := net.Instantiate(k); err != nil {
			t.Fatal(err)
		}
		k.Run(0)
		blocked := k.Blocked()
		k.Shutdown()
		return trace, log, blocked
	}
	stTrace, stLog, stBlocked := run(false)
	orTrace, orLog, orBlocked := run(true)
	if i, ok := firstDiff(stTrace, orTrace); !ok {
		t.Errorf("trace event %d differs: step %v, oracle %v", i, at(stTrace, i), at(orTrace, i))
	}
	if i, ok := firstDiff(stLog, orLog); !ok {
		t.Errorf("consumer record %d differs: step %v, oracle %v", i, at(stLog, i), at(orLog, i))
	}
	if !slices.Equal(stBlocked, orBlocked) {
		t.Errorf("blocked at the end: step %v, oracle %v", stBlocked, orBlocked)
	}
	if len(stLog) < 30 || len(stBlocked) == 0 {
		t.Errorf("%d consumer records, blocked %v: want back-pressure to stall the network", len(stLog), stBlocked)
	}
}

func rtcPJD(period, jitter des.Time) rtc.PJD { return rtc.PJD{Period: period, Jitter: jitter} }

// FuzzGateSchedule fuzzes one fault's mode and timing, and a repair and
// re-injection after it, against the oracle pair.
func FuzzGateSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint16(900), uint16(500), uint16(20), uint8(4), false)
	f.Add(uint8(1), uint8(6), uint16(640), uint16(1050), uint16(10), uint8(5), true)
	f.Add(uint8(2), uint8(5), uint16(710), uint16(120), uint16(5), uint8(4), false)
	f.Add(uint8(0), uint8(3), uint16(850), uint16(475), uint16(300), uint8(2), true)
	f.Add(uint8(1), uint8(8), uint16(300), uint16(2000), uint16(0), uint8(7), false)
	f.Fuzz(func(t *testing.T, app, mode uint8, injectC, repairC, reinjectC uint16, mode2 uint8, withChip bool) {
		apps, err := pairApps()
		if err != nil {
			t.Fatal(err)
		}
		a := apps[[]string{"mjpeg", "adpcm", "h264"}[int(app)%3]]
		var chip *scc.Chip
		if withChip {
			if chip, err = scc.New(scc.DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		// Times in hundredths of a period, inside the 48-token stream.
		period := a.app.PeriodUs
		c := func(x uint16) des.Time { return des.Time(x%4000) * period / 100 }
		gray := func(m fault.Mode, salt des.Time) fault.Gray {
			return fault.Gray{
				ExtraUs: period/2 + salt%(3*period), RampUs: salt % (10 * period),
				OnUs: period + salt%(3*period), PeriodUs: 4*period + salt%(4*period),
				EveryN: int(salt%4) + 1, Seed: uint64(salt),
			}
		}
		m1 := fault.Mode(int(mode)%int(fault.Corrupt) + 1)
		m2 := fault.Mode(int(mode2)%int(fault.Corrupt) + 1)
		inject, repair := c(injectC), c(injectC)+c(repairC)
		steps := []faultStep{
			{replica: 1 + int(mode)%2, at: inject, mode: m1, g: gray(m1, des.Time(repairC))},
			{replica: 1 + int(mode)%2, at: repair},
			{replica: 1 + int(mode)%2, at: repair + c(reinjectC)/10, mode: m2, g: gray(m2, des.Time(injectC))},
		}
		checkPair(t, fmt.Sprintf("%v then %v", m1, m2), a.app, a.sizing, chip, steps)
	})
}

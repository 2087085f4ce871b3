package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"ftpn/internal/codec/adpcm"
	"ftpn/internal/codec/h264"
	"ftpn/internal/codec/mjpeg"
	"ftpn/internal/crt"
	"ftpn/internal/des"
	"ftpn/internal/dsp"
	"ftpn/internal/exp"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
	"ftpn/internal/topo"
)

// perLayer are the per-layer metrics a traced run reports. Unit costs
// (ns, us, ms) come from loops over one layer's exported functions on
// fixed seeded inputs and are the same for every workload; the counts,
// ratios and shares come from the traced workload itself. README.md maps
// each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"des.switch_ns", "ns"},
	{"des.event_ns", "ns"},
	{"des.events_per_token", "1/token"},
	{"des.switches_per_token", "1/token"},
	{"des.blocks_per_token", "1/token"},
	{"des.callbacks_per_token", "1/token"},
	{"kpn.fifo_op_ns", "ns"},
	{"kpn.token_hash_ns", "ns"},
	{"kpn.build_us", "us"},
	{"ft.replicator_op_ns", "ns"},
	{"ft.selector_op_ns", "ns"},
	{"ft.replicator_op_rec_ns", "ns"},
	{"ft.selector_op_rec_ns", "ns"},
	{"ft.policy_sample_ns", "ns"},
	{"ft.build_us", "us"},
	{"ft.channel_ops_per_token", "1/token"},
	{"ft.selector_useful_ratio", "ratio"},
	{"obs.record_ns", "ns"},
	{"obs.record_off_ns", "ns"},
	{"obs.events_per_run", "1/run"},
	{"obs.explain_us", "us"},
	{"obs.log_hash_us", "us"},
	{"rtc.sizing_ms", "ms"},
	{"rtc.mk_bounds_us", "us"},
	{"topo.generate_us", "us"},
	{"topo.emit_parse_us", "us"},
	{"topo.compile_us", "us"},
	{"codec.mjpeg_decode_us", "us"},
	{"codec.h264_encode_us", "us"},
	{"codec.adpcm_block_us", "us"},
	{"codec.radar_chain_us", "us"},
	{"recover.recoveries_per_run", "1/run"},
	{"crt.fifo_cycle_ns", "ns"},
	{"crt.rep_sel_cycle_ns", "ns"},
	{"go.alloc_bytes_per_token", "B/token"},
	{"go.gc_cpu_fraction", "ratio"},
	{"run.attributed_share", "ratio"},
	{"trace.overhead_pct", "%"},
	{"bench.self_share", "ratio"},
	{"des.self_share", "ratio"},
	{"kpn.self_share", "ratio"},
	{"ft.self_share", "ratio"},
	{"topo.self_share", "ratio"},
	{"rtc.self_share", "ratio"},
	{"obs.self_share", "ratio"},
	{"crt.self_share", "ratio"},
}

// traceRun measures the workload untraced, then traced, for half of the
// run length each, times every layer's unit costs and derives the
// per-layer metrics. It returns the traced measurement.
func traceRun(b bench, cfg config) (*measurement, map[string]metric, error) {
	mc := measureConfig{workers: cfg.workers, seconds: cfg.seconds / 2}
	plain, err := b.measure(mc)
	if err != nil {
		return nil, nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mc.traced = true
	m, err := b.measure(mc)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&after)
	vals, err := unitCosts()
	if err != nil {
		return nil, nil, err
	}

	tokens := float64(m.tokens)
	ops := float64(m.ops)
	c := m.counts
	vals["des.events_per_token"] = float64(c.events) / tokens
	vals["des.switches_per_token"] = float64(c.resumes) / tokens
	vals["des.blocks_per_token"] = float64(c.blocks) / tokens
	vals["des.callbacks_per_token"] = float64(c.callbacks) / tokens
	vals["ft.channel_ops_per_token"] = float64(c.chanOps) / tokens
	vals["ft.selector_useful_ratio"] = ratio(float64(c.selQueued), float64(c.selWrites))
	vals["obs.events_per_run"] = float64(c.flight) / ops
	vals["recover.recoveries_per_run"] = float64(c.recoveries) / ops
	vals["go.alloc_bytes_per_token"] = float64(after.TotalAlloc-before.TotalAlloc) / tokens
	vals["go.gc_cpu_fraction"] = after.GCCPUFraction
	_, tracedRate := m.rates()
	_, plainRate := plain.rates()
	vals["trace.overhead_pct"] = 100 * (1 - tracedRate/plainRate)

	// Attribution: how much of the simulation (or live stream) time the
	// counts times the unit costs explain; the rest is stage compute.
	if run := spanTime(m.spans, "des.run"); run > 0 {
		chanOp := (vals["ft.replicator_op_ns"] + vals["ft.selector_op_ns"]) / 2
		explained := float64(c.resumes)*vals["des.switch_ns"] + float64(c.callbacks)*vals["des.event_ns"] + float64(c.chanOps)*chanOp
		vals["run.attributed_share"] = explained / float64(run)
	} else if live := spanTime(m.spans, "crt.stream"); live > 0 {
		// Per token: one replicator/selector cycle and three ack/credit FIFO transfers.
		explained := tokens * (vals["crt.rep_sel_cycle_ns"] + 3*vals["crt.fifo_cycle_ns"])
		vals["run.attributed_share"] = explained / float64(live)
	}
	self, total := selfTimes(m.spans)
	for _, d := range perLayer {
		if layer, ok := strings.CutSuffix(d.name, ".self_share"); ok {
			vals[d.name] = ratio(float64(self[layer]), float64(total))
		}
	}

	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return m, out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Unit-cost loops grow their repetition count until one timing takes
// unitTarget, then report the median of unitReps timings per operation.
// A loop whose time does not grow with its count measures nothing and
// fails once the count reaches unitMaxN.
const (
	unitTarget = 10 * time.Millisecond
	unitReps   = 3
	unitMaxN   = 1 << 28
)

// unitCost times fn(n), which performs n operations and returns how long
// they took, and reports nanoseconds per operation.
func unitCost(name string, fn func(n int) time.Duration) (float64, error) {
	n := 1
	d := fn(n)
	for d < unitTarget {
		if n >= unitMaxN {
			return 0, fmt.Errorf("%w: unit-cost loop %s took %v for %d operations", errNothingMeasured, name, d, n)
		}
		if d < unitTarget/100 {
			n *= 8
		} else {
			n = int(math.Ceil(float64(n) * 1.1 * float64(unitTarget) / float64(d)))
		}
		n = min(n, unitMaxN)
		d = fn(n)
	}
	per := []float64{float64(d) / float64(n)}
	for r := 1; r < unitReps; r++ {
		d := fn(n)
		if d < time.Millisecond {
			return 0, fmt.Errorf("%w: unit-cost loop %s took %v for %d operations", errNothingMeasured, name, d, n)
		}
		per = append(per, float64(d)/float64(n))
	}
	return median(per), nil
}

// timed runs body and returns its duration.
func timed(body func()) time.Duration {
	t0 := time.Now()
	body()
	return time.Since(t0)
}

// sink keeps the compiler from discarding results the loops compute.
var sink uint64

// unitLoop is one unit-cost loop: its metric, the scale from ns per
// operation to the metric's unit, and the loop.
type unitLoop struct {
	name  string
	scale float64 // ns per operation is divided by this
	fn    func(n int) time.Duration
}

// unitCosts runs every unit-cost loop on fixed inputs.
func unitCosts() (map[string]float64, error) {
	in, err := newUnitInputs()
	if err != nil {
		return nil, err
	}
	loops := []unitLoop{
		{"des.switch_ns", 1, desSwitch},
		{"des.event_ns", 1, desEvent},
		{"kpn.fifo_op_ns", 2, kpnFIFO},
		{"kpn.token_hash_ns", 1, in.tokenHash},
		{"kpn.build_us", 1e3, in.kpnBuild},
		{"ft.replicator_op_ns", 3, func(n int) time.Duration { return ftOps(n, false, true) }},
		{"ft.selector_op_ns", 3, func(n int) time.Duration { return ftOps(n, false, false) }},
		{"ft.replicator_op_rec_ns", 3, func(n int) time.Duration { return ftOps(n, true, true) }},
		{"ft.selector_op_rec_ns", 3, func(n int) time.Duration { return ftOps(n, true, false) }},
		{"ft.policy_sample_ns", 1, policySample},
		{"ft.build_us", 1e3, in.ftBuild},
		{"obs.record_ns", 1, func(n int) time.Duration { return record(n, true) }},
		{"obs.record_off_ns", 1, func(n int) time.Duration { return record(n, false) }},
		{"obs.explain_us", 1e3, in.explain},
		{"obs.log_hash_us", 1e3, in.logHash},
		{"rtc.sizing_ms", 1e6, in.sizing},
		{"rtc.mk_bounds_us", 1e3, in.mkBounds},
		{"topo.generate_us", 1e3, topoGenerate},
		{"topo.emit_parse_us", 1e3, in.emitParse},
		{"topo.compile_us", 1e3, in.compile},
		{"codec.mjpeg_decode_us", 1e3, in.mjpegDecode},
		{"codec.h264_encode_us", 1e3, in.h264Encode},
		{"codec.adpcm_block_us", 1e3, in.adpcmBlock},
		{"codec.radar_chain_us", 1e3, in.radarChain},
		{"crt.fifo_cycle_ns", 1, crtFIFO},
		{"crt.rep_sel_cycle_ns", 1, crtRepSel},
	}
	out := make(map[string]float64, len(loops))
	for _, l := range loops {
		ns, err := unitCost(l.name, l.fn)
		if err != nil {
			return nil, err
		}
		out[l.name] = ns / l.scale
	}
	return out, nil
}

// desSwitch: one process Delay(0) round trip through the kernel.
func desSwitch(n int) time.Duration {
	k := des.NewKernel()
	k.Spawn("p", 0, func(p *des.Proc) {
		for i := 0; i < n; i++ {
			p.Delay(0)
		}
	})
	d := timed(func() { k.Run(0) })
	k.Shutdown()
	return d
}

// desEvent: one Kernel.At callback event.
func desEvent(n int) time.Duration {
	k := des.NewKernel()
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			k.At(k.Now()+1, tick)
		}
	}
	k.At(0, tick)
	return timed(func() { k.Run(0) })
}

// kpnFIFO: n writes and n reads on a non-blocking kpn.FIFO.
func kpnFIFO(n int) time.Duration {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "f", 4)
	var d time.Duration
	k.Spawn("p", 0, func(p *des.Proc) {
		tok := kpn.Token{Seq: 1}
		d = timed(func() {
			for i := 0; i < n; i++ {
				f.Write(p, tok)
				f.Read(p)
			}
		})
	})
	k.Run(0)
	k.Shutdown()
	return d
}

// ftOps: n cycles of three arbitration-channel operations — replicator
// write + two reads, or selector write + late duplicate + read — with
// the flight recorder armed or not.
func ftOps(n int, recorded, replicator bool) time.Duration {
	k := des.NewKernel()
	sel := ft.NewSelector(k, "bench-sel", [2]int{8, 8}, [2]int{0, 0}, 4, nil, nil)
	rep := ft.NewReplicator(k, "bench-rep", [2]int{4, 4}, nil)
	if recorded {
		ft.InstrumentFlight(&ft.System{
			K:           k,
			Selectors:   map[string]*ft.Selector{"bench-sel": sel},
			Replicators: map[string]*ft.Replicator{"bench-rep": rep},
		}, obs.NewFlightRecorder(0).Stream(0))
	}
	var d time.Duration
	k.Spawn("loop", 0, func(p *des.Proc) {
		tok := kpn.Token{Seq: 1}
		if replicator {
			w, r1, r2 := rep.WriterPort(), rep.ReaderPort(1), rep.ReaderPort(2)
			d = timed(func() {
				for i := 0; i < n; i++ {
					w.Write(p, tok)
					r1.Read(p)
					r2.Read(p)
				}
			})
			return
		}
		w1, w2, r := sel.WriterPort(1), sel.WriterPort(2), sel.ReaderPort()
		d = timed(func() {
			for i := 0; i < n; i++ {
				w1.Write(p, tok)
				w2.Write(p, tok)
				r.Read(p)
			}
		})
	})
	k.Run(0)
	k.Shutdown()
	return d
}

// policySample: one (m,k) policy sample.
func policySample(n int) time.Duration {
	p, err := ft.NewMKPolicy(2, 16)
	if err != nil {
		panic(err) // (2,16) is a valid window
	}
	var convicted uint64
	d := timed(func() {
		for i := 0; i < n; i++ {
			if p.Sample(i&1, ft.ReasonQueueFull, i%5 == 0) {
				convicted++
			}
		}
	})
	sink += convicted
	return d
}

// record: one flight-recorder Record on a live or a nil stream.
func record(n int, live bool) time.Duration {
	st := obs.NewFlightRecorder(0).Stream(0)
	if !live {
		st = nil
	}
	ev := obs.FlightEvent{Channel: "bench", Kind: "write", Replica: 1}
	return timed(func() {
		for i := 0; i < n; i++ {
			ev.At = int64(i)
			st.Record(ev)
		}
	})
}

// topoGenerate: one generated network spec.
func topoGenerate(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			sink += uint64(len(topo.Generate(int64(i)).Procs))
		}
	})
}

// crtFIFO: one write + read on an uncontended crt.FIFO.
func crtFIFO(n int) time.Duration {
	f := crt.NewFIFO("f", 64)
	tok := crt.Token{Seq: 1}
	return timed(func() {
		for i := 0; i < n; i++ {
			f.Write(tok)
			f.Read()
		}
	})
}

// crtRepSel: one token through an uncontended crt replicator and
// selector on one goroutine: write, two replica reads, two selector
// writes, one read.
func crtRepSel(n int) time.Duration {
	clock := crt.NewWallClock()
	rep := crt.NewReplicator(clock, "in", [2]int{4, 4}, nil)
	sel := crt.NewSelector(clock, "out", [2]int{8, 8}, [2]int{0, 0}, 4, nil)
	return timed(func() {
		for i := 1; i <= n; i++ {
			tok := crt.Token{Seq: int64(i)}
			rep.Write(tok)
			t1, _ := rep.Read(1)
			t2, _ := rep.Read(2)
			sel.Write(1, t1)
			sel.Write(2, t2)
			sel.Read()
		}
	})
}

// unitInputs are the fixed inputs of the loops that need prepared data.
type unitInputs struct {
	apps    []exp.App
	sizings []exp.Sizing
	specs   []*topo.Spec
	frame   kpn.Token

	flight   *obs.FlightRecorder
	convict  ft.Fault
	mjpegEnc []byte
	h264Pix  []byte
	pcm      []int16
	pulse    []float64
	echo     []float64
}

// newUnitInputs prepares the loops' inputs: the paper apps at their
// default geometry, 64 generated specs, and one recorded stop-fault run.
func newUnitInputs() (*unitInputs, error) {
	in := &unitInputs{}
	for _, name := range coldApps {
		app, err := exp.AppByName(name, false, 60)
		if err != nil {
			return nil, err
		}
		s, err := exp.ComputeSizing(app)
		if err != nil {
			return nil, err
		}
		in.apps = append(in.apps, app)
		in.sizings = append(in.sizings, s)
	}
	for i := 0; i < 64; i++ {
		in.specs = append(in.specs, topo.Generate(int64(i)))
	}
	rng := rand.New(rand.NewSource(1))
	frame := make([]byte, 76800) // one paper-scale 320x240 decoded MJPEG frame
	rng.Read(frame)
	in.frame = kpn.Token{Seq: 1, Payload: frame}
	if err := in.recordConviction(); err != nil {
		return nil, err
	}

	// Codec inputs at the apps' default geometry: 64x48 frames cut into
	// three MJPEG strips or two H.264 slices, 1500-sample ADPCM blocks,
	// 2048-sample radar windows with a 64-sample chirp.
	enc, err := mjpeg.Encode(mjpeg.TestFrame(64, 16, 3), 70)
	if err != nil {
		return nil, err
	}
	in.mjpegEnc = enc
	in.h264Pix = make([]byte, 64*24)
	for i := range in.h264Pix {
		in.h264Pix[i] = byte(i*7 + i/64*3)
	}
	in.pcm = make([]int16, 1500)
	for i := range in.pcm {
		in.pcm[i] = int16(9000 * math.Sin(2*math.Pi*440*float64(i)/48000))
	}
	if in.pulse, err = dsp.Chirp(64, 0.05, 0.2); err != nil {
		return nil, err
	}
	if in.echo, err = dsp.AddEchoes(2048, in.pulse, []int{700, 1400}, []float64{1, 0.8}, 0.03, 1000); err != nil {
		return nil, err
	}
	return in, nil
}

// recordConviction runs the first generated permanent stop-fault network
// with the flight recorder armed and keeps the log and the conviction.
func (in *unitInputs) recordConviction() error {
	for seed := int64(1); seed < 1000; seed++ {
		spec := topo.Generate(seed)
		if spec.Scenario != topo.ScenarioStop || len(spec.Faults) == 0 || spec.Faults[0].RepairAtUs != 0 {
			continue
		}
		model, err := topo.Compile(spec)
		if err != nil {
			return err
		}
		app := topoApp(model)
		sizing, err := exp.ComputeSizing(app)
		if err != nil {
			return err
		}
		net, err := app.Build(nil)
		if err != nil {
			return err
		}
		k := des.NewKernel()
		sys, err := ft.Build(k, net, sizing.BuildConfig(app))
		if err != nil {
			return err
		}
		fr := obs.NewFlightRecorder(flightCap)
		st := fr.Stream(0)
		ft.InstrumentFlight(sys, st)
		fs := spec.Faults[0]
		st.Record(obs.FlightEvent{At: fs.AtUs, Kind: obs.FlightInject, Reason: fs.Mode, Replica: fs.Replica})
		model.ApplyFaults(sys)
		k.Run(0)
		k.Shutdown()
		first, ok := sys.FirstFault(fs.Replica)
		if !ok {
			return fmt.Errorf("stop fault in generated network %d was not detected", seed)
		}
		in.flight, in.convict = fr, first
		return nil
	}
	return fmt.Errorf("no permanent stop-fault network among the first 1000 generated")
}

func (in *unitInputs) tokenHash(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			sink += in.frame.Hash()
		}
	})
}

func (in *unitInputs) kpnBuild(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			net, err := in.apps[i%len(in.apps)].Build(nil)
			if err != nil {
				panic(err) // the paper apps' default configurations are valid
			}
			sink += uint64(len(net.Procs))
		}
	})
}

// ftBuild times ft.Build alone; building the reference network and
// unwinding the instantiated processes are outside the timing.
func (in *unitInputs) ftBuild(n int) time.Duration {
	var d time.Duration
	for i := 0; i < n; i++ {
		j := i % len(in.apps)
		net, err := in.apps[j].Build(nil)
		if err != nil {
			panic(err)
		}
		k := des.NewKernel()
		cfg := in.sizings[j].BuildConfig(in.apps[j])
		t0 := time.Now()
		_, err = ft.Build(k, net, cfg)
		d += time.Since(t0)
		if err != nil {
			panic(err)
		}
		k.Shutdown()
	}
	return d
}

func (in *unitInputs) explain(n int) time.Duration {
	f := in.convict
	return timed(func() {
		for i := 0; i < n; i++ {
			ex, _ := obs.Explain(in.flight.Events(), f.Channel, f.Replica, int64(f.At))
			sink += uint64(ex.LatencyUs)
		}
	})
}

func (in *unitInputs) logHash(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			h := fnv.New64a()
			h.Write(in.flight.Bytes())
			sink += h.Sum64()
		}
	})
}

func (in *unitInputs) sizing(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			s, err := exp.ComputeSizing(in.apps[i%len(in.apps)])
			if err != nil {
				panic(err)
			}
			sink += uint64(s.D)
		}
	})
}

func (in *unitInputs) mkBounds(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			j := i % len(in.apps)
			b, err := exp.MKDetectionBounds(in.apps[j], in.sizings[j], 2)
			if err != nil {
				panic(err)
			}
			sink += uint64(b.Worst())
		}
	})
}

func (in *unitInputs) emitParse(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			doc, err := topo.Emit(in.specs[i%len(in.specs)])
			if err != nil {
				panic(err)
			}
			spec, err := topo.Parse(doc)
			if err != nil {
				panic(err)
			}
			sink += uint64(spec.Tokens)
		}
	})
}

func (in *unitInputs) compile(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			m, err := topo.Compile(in.specs[i%len(in.specs)])
			if err != nil {
				panic(err)
			}
			sink += uint64(m.Tokens())
		}
	})
}

func (in *unitInputs) mjpegDecode(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			f, err := mjpeg.Decode(in.mjpegEnc)
			if err != nil {
				panic(err)
			}
			sink += uint64(f.Pix[i%len(f.Pix)])
		}
	})
}

func (in *unitInputs) h264Encode(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			data, err := h264.Encode(in.h264Pix, 64, 24, 26)
			if err != nil {
				panic(err)
			}
			sink += uint64(len(data))
		}
	})
}

func (in *unitInputs) adpcmBlock(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			block, err := adpcm.EncodeBlock(in.pcm)
			if err != nil {
				panic(err)
			}
			pcm, err := adpcm.DecodeBlock(block)
			if err != nil {
				panic(err)
			}
			sink += uint64(pcm[i%len(pcm)])
		}
	})
}

func (in *unitInputs) radarChain(n int) time.Duration {
	return timed(func() {
		for i := 0; i < n; i++ {
			env := dsp.Envelope(dsp.MatchedFilter(in.echo, in.pulse), 8)
			dets, err := dsp.CACFAR(env, 8, 24, 3)
			if err != nil {
				panic(err)
			}
			sink += uint64(len(dets))
		}
	})
}

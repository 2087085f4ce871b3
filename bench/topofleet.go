package main

import (
	"fmt"
	"hash/fnv"

	"ftpn/internal/apps"
	"ftpn/internal/des"
	"ftpn/internal/exp"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
	"ftpn/internal/topo"
)

// fleetSize is how many generated network documents topo_fleet's
// set-up produces; op i runs document i mod fleetSize.
const fleetSize = 4096

// flightCap bounds each run's flight log. A generated network streams
// at most 100 tokens at about six channel events each, so a run that
// overflows it is a failure, not a sampling choice.
const flightCap = 1 << 11

// topoFleetBench runs many small generated networks through the whole
// DSL path: parse, compile, analytic sizing, a golden run, then the
// spec's own fault script under its own detection policy with the
// flight recorder armed, and forensics on the first conviction.
type topoFleetBench struct {
	docs [][]byte // emitted topo specs (JSON)
}

// setupTopoFleet generates the fleet's network documents from the seed.
func setupTopoFleet(seed int64) (bench, error) {
	b := &topoFleetBench{docs: make([][]byte, fleetSize)}
	for i := range b.docs {
		doc, err := topo.Emit(topo.Generate(opSeed(seed, i)))
		if err != nil {
			return nil, fmt.Errorf("emit network %d: %w", i, err)
		}
		b.docs[i] = doc
	}
	return b, nil
}

func (b *topoFleetBench) measure(mc measureConfig) (*measurement, error) {
	return runDES(mc, b.op)
}

// topoApp adapts a compiled model to the exp.App descriptor the sizing
// analysis takes.
func topoApp(model *topo.Model) exp.App {
	return exp.App{
		Name: model.Spec.Name,
		Build: func(sink apps.Sink) (*kpn.Network, error) {
			return model.Build(topo.Sink(sink))
		},
		Producer:      model.ProducerModel(),
		Consumer:      model.ConsumerModel(),
		InModel:       model.InModel,
		OutModel:      model.OutModel,
		InChan:        model.InChan,
		OutChan:       model.OutChan,
		Tokens:        model.Tokens(),
		PeriodUs:      model.PeriodUs(),
		InTokenBytes:  model.InTokenBytes,
		OutTokenBytes: model.OutTokenBytes,
		OutInit:       model.OutInit,
	}
}

// valueCheck is the replay value cross-check against a golden consumer
// stream: Seq-gated, so only a same-Seq payload mismatch fails (the
// ft.ValueCheck contract).
func valueCheck(stream []tokenID, sizing exp.Sizing) ft.ValueCheck {
	nPre := max(sizing.SelInits[0], sizing.SelInits[1])
	return func(pair int64, tok kpn.Token) bool {
		idx := int64(nPre) + pair - 1
		if idx < 0 || idx >= int64(len(stream)) || stream[idx].seq != tok.Seq {
			return true
		}
		return stream[idx].hash == tok.Hash()
	}
}

// op runs network document i mod fleetSize and checks: zero false
// convictions fault-free, masking and Lemma 1 under the fault script,
// detection of permanent faults (stop modes within the (m,k) bound,
// corruption as a value conviction), no conviction on within-budget
// transients, and a forensic reconstruction that matches the measured
// injection, latency and mode.
func (b *topoFleetBench) op(i int, tr *tracer) opResult {
	var res opResult
	sp := tr.begin("topo.parse")
	spec, err := topo.Parse(b.docs[i%len(b.docs)])
	tr.end(sp)
	if err != nil {
		res.fail("parse: %v", err)
		return res
	}
	sp = tr.begin("topo.compile")
	model, err := topo.Compile(spec)
	tr.end(sp)
	if err != nil {
		res.fail("compile: %v", err)
		return res
	}
	app := topoApp(model)
	sp = tr.begin("rtc.sizing")
	sizing, err := exp.ComputeSizing(app)
	tr.end(sp)
	if err != nil {
		res.fail("sizing: %v", err)
		return res
	}
	pol := ft.PolicySpec{}
	if spec.Detection != nil {
		pol = *spec.Detection
	}
	m := 0
	if pol.Kind == ft.PolicyMK {
		m = pol.M
	}
	sp = tr.begin("rtc.mk_bounds")
	bounds, err := exp.MKDetectionBounds(app, sizing, m)
	tr.end(sp)
	if err != nil {
		res.fail("mk bounds: %v", err)
		return res
	}

	// Golden: fault-free under the timing half of the policy (the value
	// check replays against this very stream).
	timingPol := pol
	timingPol.Value = false
	golden, sys, ok := runTopo(app, sizing, timingPol, nil, nil, tr, &res)
	if !ok {
		return res
	}
	if len(sys.Faults) != 0 {
		f := sys.Faults[0]
		res.fail("fault-free run convicted R%d at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
	}
	if int64(len(golden)) != spec.Tokens {
		res.fail("fault-free consumer stream %d/%d tokens", len(golden), spec.Tokens)
	}
	checkLemma1(app, sys, 1, &res)
	checkLemma1(app, sys, 2, &res)

	// The spec's fault script under its policy, recorded.
	var vc ft.ValueCheck
	if pol.Value {
		vc = valueCheck(golden, sizing)
	}
	fr := obs.NewFlightRecorder(flightCap)
	st := fr.Stream(0)
	faulted := func(sys *ft.System) {
		ft.InstrumentFlight(sys, st)
		if len(spec.Faults) > 0 {
			fs := spec.Faults[0]
			st.Record(obs.FlightEvent{At: fs.AtUs, Kind: obs.FlightInject, Reason: fs.Mode, Replica: fs.Replica})
		}
		model.ApplyFaults(sys)
	}
	stream, sys2, ok := runTopo(app, sizing, pol, vc, faulted, tr, &res)
	if !ok {
		return res
	}
	res.tokens = int64(len(golden) + len(stream))
	res.counts.flight = int64(fr.Len())
	if d := sameStream(stream, golden); d != "" {
		res.fail("fault run: %s", d)
	}
	if fr.Dropped() != 0 {
		res.fail("flight log overflowed its %d-event ring", flightCap)
	}
	h := streamDigest(fnvOffset, stream)
	if len(spec.Faults) > 0 {
		checkLemma1(app, sys2, 3-spec.Faults[0].Replica, &res)
		checkFaultScript(spec, sys2, fr, bounds, &res, tr)
		for _, f := range sys2.Faults {
			h = fnvAdd(fnvAdd(h, uint64(f.Replica)), uint64(f.At))
		}
	} else if len(sys2.Faults) != 0 {
		res.fail("fault-free recorded run convicted %v", sys2.Faults[0])
	}
	sp = tr.begin("obs.log_hash")
	lh := fnv.New64a()
	lh.Write(fr.Bytes())
	tr.end(sp)
	res.digest = fnvAdd(h, lh.Sum64())
	res.requireWork()
	return res
}

// runTopo builds and runs the duplicated network once; prepare, when
// set, arms instrumentation and faults before the run. It accumulates
// the run's counters into res and reports false after a failed build.
func runTopo(app exp.App, sizing exp.Sizing, pol ft.PolicySpec, vc ft.ValueCheck,
	prepare func(*ft.System), tr *tracer, res *opResult) ([]tokenID, *ft.System, bool) {
	sp := tr.begin("kpn.build")
	stream := make([]tokenID, 0, app.Tokens)
	net, err := app.Build(func(_ des.Time, tok kpn.Token) {
		stream = append(stream, tokenID{tok.Seq, tok.Hash()})
	})
	tr.end(sp)
	if err != nil {
		res.fail("build: %v", err)
		return nil, nil, false
	}
	cfg := sizing.BuildConfig(app)
	cfg.Policy = pol
	if vc != nil {
		cfg.ValueCheck = map[string]ft.ValueCheck{app.OutChan: vc}
	}
	k := des.NewKernel()
	tr.attach(k)
	sp = tr.begin("ft.build")
	sys, err := ft.Build(k, net, cfg)
	tr.end(sp)
	if err != nil {
		res.fail("ft build: %v", err)
		return nil, nil, false
	}
	if prepare != nil {
		prepare(sys)
	}
	sp = tr.begin("des.run")
	k.Run(0)
	k.Shutdown()
	tr.end(sp)
	c := systemCounts(sys)
	c.events = k.Dispatched()
	res.counts.add(c)
	if err := sys.CheckInvariants(); err != nil {
		res.fail("counter identities: %v", err)
	}
	return stream, sys, true
}

// checkLemma1 fails the op if replica r did not write the full workload
// (a healthy replica is never back-pressured).
func checkLemma1(app exp.App, sys *ft.System, r int, res *opResult) {
	if w := sys.Selectors[app.OutChan].Writes(r); w != app.Tokens {
		res.fail("replica R%d wrote %d/%d tokens (back-pressured)", r, w, app.Tokens)
	}
}

// checkFaultScript checks the outcome of the spec's first scripted fault
// and cross-checks the forensic explanation of its conviction.
func checkFaultScript(spec *topo.Spec, sys *ft.System, fr *obs.FlightRecorder, bounds exp.MKBounds, res *opResult, tr *tracer) {
	fs := spec.Faults[0]
	mode, _ := fault.ModeByName(fs.Mode)
	transient := fs.RepairAtUs > 0
	injectAt := des.Time(fs.AtUs)
	healthy := 3 - fs.Replica
	for _, f := range sys.Faults {
		if f.Replica == healthy {
			res.fail("healthy replica R%d convicted at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
		}
		if transient && f.Replica == fs.Replica {
			res.fail("within-budget transient convicted R%d at %dus (%s on %s)", f.Replica, f.At, f.Reason, f.Channel)
		}
	}
	if transient {
		return
	}
	first, ok := sys.FirstFault(fs.Replica)
	if !ok || first.At < injectAt {
		res.fail("%s fault injected at %dus was never detected", fs.Mode, injectAt)
		return
	}
	latency := first.At - injectAt
	var bound des.Time
	switch mode {
	case fault.StopAll:
		bound = min(bounds.SelBoundUs, bounds.RepBoundUs)
	case fault.StopProducing:
		bound = bounds.SelBoundUs
	case fault.StopConsuming:
		bound = bounds.RepBoundUs
	}
	if bound > 0 && latency > bound {
		res.fail("detection latency %dus exceeds analytic bound %dus (%s)", latency, bound, fs.Mode)
	}
	if mode == fault.Corrupt && first.Kind != ft.KindValue {
		res.fail("corruption detected as %s, want a value conviction", first.Kind)
	}

	sp := tr.begin("obs.explain")
	ex, ok := obs.Explain(fr.Events(), first.Channel, first.Replica, int64(first.At))
	tr.end(sp)
	switch {
	case !ok:
		res.fail("forensics: no convict event in the flight log")
	case ex.InjectedAt != fs.AtUs:
		res.fail("forensics: injection reconstructed at %dus, injected at %dus", ex.InjectedAt, fs.AtUs)
	case ex.LatencyUs != int64(latency):
		res.fail("forensics: latency reconstructed as %dus, measured %dus", ex.LatencyUs, latency)
	case ex.FaultMode != fs.Mode:
		res.fail("forensics: fault mode reconstructed as %q, injected %q", ex.FaultMode, fs.Mode)
	case first.Kind == ft.KindValue && ex.ValueDrops == 0 && ex.Reason != string(ft.ReasonValueDivergence):
		res.fail("forensics: value conviction without replay evidence in the chain")
	}
}

package recover

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
	"ftpn/internal/rtc"
)

// testNet is a P -> W -> C network with one critical worker.
func testNet(tokens int64, sink *[]kpn.Token) *kpn.Network {
	return &kpn.Network{
		Name: "recover-net",
		Procs: []kpn.ProcessSpec{
			{Name: "P", Role: kpn.RoleProducer, New: func(int) kpn.Behavior {
				return kpn.Producer(rtc.PJD{Period: 1000}, 1, tokens, func(i int64) []byte {
					return []byte{byte(i)}
				})
			}},
			{Name: "W", Role: kpn.RoleCritical, New: func(replica int) kpn.Behavior {
				return kpn.Transform(kpn.WorkModel{BaseUs: 50, JitterUs: des.Time(replica) * 100}, 3, nil)
			}},
			{Name: "C", Role: kpn.RoleConsumer, New: func(int) kpn.Behavior {
				return kpn.Consumer(rtc.PJD{Period: 1000}, 4, tokens, func(now des.Time, tok kpn.Token) {
					if sink != nil {
						*sink = append(*sink, tok)
					}
				})
			}},
		},
		Chans: []kpn.ChannelSpec{
			{Name: "F_in", From: "P", To: "W", Capacity: 4, TokenBytes: 1},
			{Name: "F_out", From: "W", To: "C", Capacity: 8, InitialTokens: 2, TokenBytes: 1},
		},
	}
}

func buildSys(t *testing.T, tokens int64, sink *[]kpn.Token) (*des.Kernel, *ft.System) {
	t.Helper()
	k := des.NewKernel()
	sys, err := ft.Build(k, testNet(tokens, sink), ft.BuildConfig{
		ReplicatorD: map[string]int64{"F_in": 3},
		SelectorD:   map[string]int64{"F_out": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, sys
}

func TestManagerRecoversAndSecondFaultStaysConvicted(t *testing.T) {
	var sink []kpn.Token
	k, sys := buildSys(t, 300, &sink)
	m := NewManager(sys, Plan{Delay: 20_000, MaxRecoveries: 1})
	var recovered []Event
	m.OnRecovered = func(ev Event) { recovered = append(recovered, ev) }

	sys.InjectFault(2, 40_000, fault.StopAll, 0)
	sys.InjectFault(2, 150_000, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()

	if len(recovered) != 1 {
		t.Fatalf("recoveries = %d, want exactly 1 (MaxRecoveries)", len(recovered))
	}
	ev := recovered[0]
	if !ev.Complete || ev.Replica != 2 {
		t.Errorf("event = %+v, want complete recovery of replica 2", ev)
	}
	if ev.RecoveredAt != ev.DetectedAt+20_000 {
		t.Errorf("recovered at %d, want detection %d + delay 20000", ev.RecoveredAt, ev.DetectedAt)
	}
	// The second fault must be re-detected after recovery and, with the
	// recovery budget spent, stay convicted.
	second := false
	for _, f := range sys.Faults {
		if f.Replica == 2 && f.At >= 150_000 {
			second = true
		}
		if f.Replica == 1 {
			t.Errorf("healthy replica convicted: %v", f)
		}
	}
	if !second {
		t.Errorf("second fault not detected; faults: %v", sys.Faults)
	}
	if faulty, _, _ := sys.Selectors["F_out"].Faulty(2); !faulty {
		if faulty2, _, _ := sys.Replicators["F_in"].Faulty(2); !faulty2 {
			t.Error("replica 2 should stay convicted on some channel after the second fault")
		}
	}
	if got := len(m.Events()); got != 1 {
		t.Errorf("Events() = %d entries, want 1", got)
	}
	// Both inject/repair cycles are on the switch history.
	hist := sys.Switches[1].Injections()
	if len(hist) != 2 || !hist[0].Repaired || hist[1].Repaired {
		t.Errorf("injection history = %+v, want repaired first cycle and latched second", hist)
	}
}

// TestManagerRearmsWithSystemDefault: a manager recovery re-arms through
// ft.System.Reintegrate — the recovered replica's replicator queue
// mirrors min(capacity-1, healthy fill) tokens and its switch is
// repaired before OnRecovered runs.
func TestManagerRearmsWithSystemDefault(t *testing.T) {
	k, sys := buildSys(t, 300, nil)
	m := NewManager(sys, Plan{Delay: 20_000, MaxRecoveries: 1})
	r := sys.Replicators["F_in"]
	recovered := 0
	m.OnRecovered = func(ev Event) {
		recovered++
		if got, want := r.Fill(2), min(r.Capacity(2)-1, r.Fill(1)); got != want {
			t.Errorf("re-armed fill = %d, want min(capacity-1, healthy fill) = %d", got, want)
		}
		if faulty, _, _ := r.Faulty(2); faulty {
			t.Error("replica 2 still convicted on F_in after recovery")
		}
		if sw := sys.Switches[1]; sw.Mode() != fault.None || !sw.Repaired() {
			t.Errorf("switch 2 = %v, want repaired", sw.Mode())
		}
	}
	sys.InjectFault(2, 40_000, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()
	if recovered != 1 {
		t.Fatalf("recoveries = %d, want 1", recovered)
	}
}

func TestManagerCollapsesMultiChannelConvictions(t *testing.T) {
	var sink []kpn.Token
	k, sys := buildSys(t, 200, &sink)
	m := NewManager(sys, Plan{Delay: 15_000})
	sys.InjectFault(1, 30_000, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()

	// StopAll convicts at both the replicator and the selector; only one
	// recovery must result.
	if got := len(m.Events()); got != 1 {
		t.Fatalf("recoveries = %d, want 1 (multi-channel convictions collapsed)", got)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Errorf("invariants violated after recovery: %v", err)
	}
}

// TestOnConvictedCarriesChannelState checks the state a conviction
// carries where it is recorded, the flight log's convict record: one
// per engine fault, attributed, with channel state sampled inside the
// convicting operation. The manager's recover record repeats the
// triggering conviction's fill, and the stream's metrics keep their
// identities with the log.
func TestOnConvictedCarriesChannelState(t *testing.T) {
	var sink []kpn.Token
	k, sys := buildSys(t, 300, &sink)
	m := NewManager(sys, Plan{Delay: 20_000, MaxRecoveries: 1})
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(0)
	st := fr.Stream(0)
	st.SetMetrics(reg)
	ft.InstrumentFlight(sys, st)
	m.RecordFlight(st)

	sys.InjectFault(2, 40_000, fault.StopAll, 0)
	sys.InjectFault(2, 150_000, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()

	var convicts, recovers []obs.FlightEvent
	for _, ev := range fr.Events() {
		switch ev.Kind {
		case obs.FlightConvict:
			convicts = append(convicts, ev)
		case obs.FlightRecover:
			recovers = append(recovers, ev)
		}
	}
	if len(convicts) != len(sys.Faults) {
		t.Fatalf("flight log holds %d convict records, engine recorded %d faults", len(convicts), len(sys.Faults))
	}
	for i, f := range sys.Faults {
		c := convicts[i]
		if c.Channel != f.Channel || c.Replica != f.Replica || c.At != int64(f.At) || c.Reason != string(f.Reason) {
			t.Errorf("convict record %d = %+v, engine fault %+v", i, c, f)
		}
	}
	first := convicts[0]
	if first.Channel == "" || first.Replica != 2 || first.At == 0 {
		t.Errorf("conviction lacks attribution: %+v", first)
	}
	// A stop fault is caught either by queue-full (fill at capacity) or
	// divergence/stall (healthy side leading) — some state must be
	// non-trivial at conviction.
	if first.Fill == 0 && first.Aux == 0 {
		t.Errorf("conviction carries no channel state: %+v", first)
	}
	events := m.Events()
	if len(recovers) != len(events) {
		t.Fatalf("flight log holds %d recover records, manager completed %d recoveries", len(recovers), len(events))
	}
	for i, ev := range events {
		var conv *obs.FlightEvent
		for j := range convicts {
			c := &convicts[j]
			if c.Channel == ev.Detection.Channel && c.Replica == ev.Replica && c.At == int64(ev.DetectedAt) {
				conv = c
				break
			}
		}
		if conv == nil {
			t.Fatalf("recovery %d: triggering conviction %+v missing from the flight log", i, ev.Detection)
		}
		if rec := recovers[i]; rec.Fill != conv.Fill || rec.Aux != int64(ev.RecoveredAt-ev.DetectedAt) {
			t.Errorf("recover record %d = %+v, want fill %d at conviction and latency %d",
				i, rec, conv.Fill, ev.RecoveredAt-ev.DetectedAt)
		}
	}

	// Metric identities over the flight stream's metrics: convictions
	// metric == faults; recoveries == latency samples == completed
	// recoveries. Sum the conviction series over the distinct label
	// sets the run produced.
	var convTotal int64
	seen := map[string]bool{}
	for _, f := range sys.Faults {
		key := f.Channel + "|" + string(f.Reason)
		if seen[key] {
			continue
		}
		seen[key] = true
		convTotal += reg.Counter("ftpn_flight_convictions_total", "",
			obs.Labels{"channel": f.Channel, "replica": "2", "reason": string(f.Reason)}).Value()
	}
	if convTotal != int64(len(sys.Faults)) {
		t.Errorf("convictions metric = %d, want %d", convTotal, len(sys.Faults))
	}
	recovered := reg.Counter("ftpn_flight_recoveries_total", "", obs.Labels{"replica": "2"}).Value()
	if recovered != int64(len(events)) {
		t.Errorf("recoveries metric = %d, want %d", recovered, len(events))
	}
	if h := reg.Histogram("ftpn_flight_recovery_latency_us", "", nil, nil); h.Count() != int64(len(events)) {
		t.Errorf("latency histogram count = %d, want %d", h.Count(), len(events))
	}
}

// TestManagerRecordsFlightChain closes the forensics loop end-to-end:
// with the flight recorder armed on the probes (ft.InstrumentFlight),
// the harness (inject event) and the manager (RecordFlight), obs.Explain
// must reconstruct the full injection → conviction → re-integration →
// recovery chain from the event log alone.
func TestManagerRecordsFlightChain(t *testing.T) {
	var sink []kpn.Token
	k, sys := buildSys(t, 300, &sink)
	m := NewManager(sys, Plan{Delay: 20_000, MaxRecoveries: 1})
	fr := obs.NewFlightRecorder(0)
	st := fr.Stream(0)
	ft.InstrumentFlight(sys, st)
	m.RecordFlight(st)

	const injectAt = 40_000
	st.Record(obs.FlightEvent{At: injectAt, Kind: obs.FlightInject, Reason: "stop-all", Replica: 2})
	sys.InjectFault(2, injectAt, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()

	if len(m.Events()) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(m.Events()))
	}
	rec := m.Events()[0]
	first := rec.Detection
	ex, ok := obs.Explain(fr.Events(), first.Channel, first.Replica, int64(first.At))
	if !ok {
		t.Fatal("conviction missing from the flight log")
	}
	if ex.FaultMode != "stop-all" || ex.InjectedAt != injectAt {
		t.Errorf("injection reconstructed as %q at %d, want stop-all at %d", ex.FaultMode, ex.InjectedAt, injectAt)
	}
	if want := int64(first.At - injectAt); ex.LatencyUs != want {
		t.Errorf("latency reconstructed as %d, want %d", ex.LatencyUs, want)
	}
	if ex.RecoveredAt != int64(rec.RecoveredAt) {
		t.Errorf("recovery reconstructed at %d, manager recorded %d", ex.RecoveredAt, rec.RecoveredAt)
	}
	if ex.ReintegratedAt < 0 {
		t.Error("re-integration probe missing from the chain")
	}
	// The recover event carries the detection→recovery latency in Aux.
	for _, ev := range ex.Chain {
		if ev.Kind == obs.FlightRecover {
			if want := int64(rec.RecoveredAt - rec.DetectedAt); ev.Aux != want {
				t.Errorf("recover event Aux = %d, want latency %d", ev.Aux, want)
			}
		}
	}
	// A nil stream stays a no-op.
	m2 := NewManager(sys, Plan{})
	m2.RecordFlight(nil)
}

package ft

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
)

// buildObserved builds the shared pipeline test network with a stop
// fault on replica 2, instrumented by the given hooks, and runs it.
func buildObserved(t *testing.T, instrument func(*System)) *System {
	t.Helper()
	k := des.NewKernel()
	sys, err := Build(k, pipelineNet(40, nil), BuildConfig{
		SelectorCaps:  map[string][2]int{"FC": {8, 8}},
		SelectorInits: map[string][2]int{"FC": {2, 2}},
		SelectorD:     map[string]int64{"FC": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	instrument(sys)
	sys.InjectFault(2, 3000, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()
	return sys
}

// driveChannels pushes n tokens through a bare replicator and selector
// recording on one flight stream, reading everything back. Returns the
// channels for counter assertions.
func driveChannels(k *des.Kernel, st *obs.FlightStream, n int64) (*Replicator, *Selector) {
	r := NewReplicator(k, "R", [2]int{8, 8}, nil)
	s := NewSelector(k, "S", [2]int{8, 8}, [2]int{0, 0}, 4, nil, nil)
	r.RecordFlight(st, 1)
	s.RecordFlight(st, 1)
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := int64(1); i <= n; i++ {
			r.WriterPort().Write(p, kpn.Token{Seq: i})
			t1 := r.ReaderPort(1).Read(p)
			t2 := r.ReaderPort(2).Read(p)
			s.WriterPort(1).Write(p, t1)
			s.WriterPort(2).Write(p, t2)
			s.ReaderPort().Read(p)
		}
	})
	k.Run(0)
	return r, s
}

// TestProbeEventsMatchCounters drives both channel types and checks the
// flight event stream is exactly consistent with the channels' own
// counters: enqueues = writes per replica, reads match, and the
// selector's duplicate drops equal one per pair.
func TestProbeEventsMatchCounters(t *testing.T) {
	fr := obs.NewFlightRecorder(0)
	r, s := driveChannels(des.NewKernel(), fr.Stream(0), 50)
	counts := map[string]map[string]int64{"R": {}, "S": {}}
	for _, e := range fr.Events() {
		counts[e.Channel][e.Kind]++
	}

	rc, sc := counts["R"], counts["S"]
	write, enqueue, read, dup := ProbeWrite.String(), ProbeEnqueue.String(), ProbeRead.String(), ProbeDropDuplicate.String()
	if rc[write] != r.Writes() {
		t.Errorf("rep write events = %d, Writes() = %d", rc[write], r.Writes())
	}
	if want := r.Reads(1) + r.Reads(2); rc[read] != want {
		t.Errorf("rep read events = %d, Reads sum = %d", rc[read], want)
	}
	if want := 2 * r.Writes(); rc[enqueue] != want {
		t.Errorf("rep enqueue events = %d, want %d (both replicas healthy)", rc[enqueue], want)
	}
	// Selector: each pair's first write enqueues, the second drops.
	if want := s.Writes(1) + s.Writes(2); sc[enqueue]+sc[dup] != want {
		t.Errorf("sel enqueue+dup events = %d, Writes sum = %d", sc[enqueue]+sc[dup], want)
	}
	if want := s.Drops(1) + s.Drops(2); sc[dup] != want {
		t.Errorf("sel dup events = %d, Drops sum = %d", sc[dup], want)
	}
	if sc[read] != s.Reads() {
		t.Errorf("sel read events = %d, Reads() = %d", sc[read], s.Reads())
	}
}

// flightEvents returns a metric reader over the flight events family.
func flightEvents(reg *obs.Registry) func(channel string, replica int, kind ProbeKind) int64 {
	return func(channel string, replica int, kind ProbeKind) int64 {
		return reg.Counter("ftpn_flight_events_total", "", obs.Labels{
			"channel": channel, "replica": fmt.Sprintf("%d", replica), "kind": kind.String()}).Value()
	}
}

// TestInstrumentMetricsMatchEngine builds a duplicated system through
// Build, injects a stop fault, and asserts the metrics sink of the
// flight stream agrees with the engine's own counters — the metric
// layer must never invent or lose an event.
func TestInstrumentMetricsMatchEngine(t *testing.T) {
	reg := obs.NewRegistry()
	sys := buildObserved(t, func(sys *System) {
		st := obs.NewFlightRecorder(0).Stream(0)
		st.SetMetrics(reg)
		InstrumentFlight(sys, st)
	})
	events := flightEvents(reg)
	for name, r := range sys.Replicators {
		if got := events(name, 0, ProbeWrite); got != r.Writes() {
			t.Errorf("%s writes metric = %d, engine = %d", name, got, r.Writes())
		}
		for i := 1; i <= 2; i++ {
			if got := events(name, i, ProbeRead); got != r.Reads(i) {
				t.Errorf("%s reads[%d] metric = %d, engine = %d", name, i, got, r.Reads(i))
			}
		}
	}
	for name, s := range sys.Selectors {
		if got := events(name, 0, ProbeRead); got != s.Reads() {
			t.Errorf("%s sel reads metric = %d, engine = %d", name, got, s.Reads())
		}
		for i := 1; i <= 2; i++ {
			enq := events(name, i, ProbeEnqueue)
			dup := events(name, i, ProbeDropDuplicate)
			if enq+dup != s.Writes(i) {
				t.Errorf("%s interface %d: enqueued %d + dup %d != writes %d", name, i, enq, dup, s.Writes(i))
			}
			if dup != s.Drops(i) {
				t.Errorf("%s interface %d: dup metric = %d, engine = %d", name, i, dup, s.Drops(i))
			}
		}
	}
	// Every detection event is counted, attributed by reason.
	byLabel := int64(0)
	for _, l := range dedupeFaultLabels(sys.Faults) {
		byLabel += reg.Counter("ftpn_flight_convictions_total", "", l).Value()
	}
	if byLabel != int64(len(sys.Faults)) {
		t.Errorf("convictions metric sum = %d, engine recorded %d", byLabel, len(sys.Faults))
	}
	if len(sys.Faults) == 0 {
		t.Error("expected at least one detection from the injected stop fault")
	}
}

// TestNWayFlightMetricsMatchEngine drives 3-replica channels through the
// flight emitter and its metrics sink: every replica's event counts,
// replica 3's included, must equal the engine's own counters.
func TestNWayFlightMetricsMatchEngine(t *testing.T) {
	const n = 40
	k := des.NewKernel()
	r := NewNReplicator(k, "R", []int{8, 8, 8}, nil)
	s := NewNSelector(k, "S", []int{8, 8, 8}, []int{0, 0, 0}, 4, nil, nil)
	reg := obs.NewRegistry()
	st := obs.NewFlightRecorder(0).Stream(0)
	st.SetMetrics(reg)
	InstrumentFlight(&System{K: k, Replicators: map[string]*Replicator{"R": r}, Selectors: map[string]*Selector{"S": s}}, st)
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := int64(1); i <= n; i++ {
			r.WriterPort().Write(p, kpn.Token{Seq: i})
			for rep := 3; rep >= 1; rep-- {
				s.WriterPort(rep).Write(p, r.ReaderPort(rep).Read(p))
			}
			s.ReaderPort().Read(p)
		}
	})
	k.Run(0)
	k.Shutdown()

	events := flightEvents(reg)
	if got := events("R", 0, ProbeWrite); got != n || got != r.Writes() {
		t.Errorf("R writes metric = %d, engine = %d, want %d", got, r.Writes(), n)
	}
	for i := 1; i <= 3; i++ {
		if got := events("R", i, ProbeEnqueue); got != r.Writes() {
			t.Errorf("R enqueue[%d] metric = %d, engine writes = %d", i, got, r.Writes())
		}
		if got := events("R", i, ProbeRead); got != r.Reads(i) {
			t.Errorf("R reads[%d] metric = %d, engine = %d", i, got, r.Reads(i))
		}
		enq, dup := events("S", i, ProbeEnqueue), events("S", i, ProbeDropDuplicate)
		if enq+dup != s.Writes(i) || dup != s.Drops(i) {
			t.Errorf("S interface %d: enqueued %d + dup %d, engine writes %d drops %d", i, enq, dup, s.Writes(i), s.Drops(i))
		}
	}
	// Interface 3 writes first every round, so it owns every pair.
	if got := events("S", 3, ProbeEnqueue); got != n {
		t.Errorf("S enqueue[3] = %d, want %d", got, n)
	}
	if got := events("S", 0, ProbeRead); got != s.Reads() {
		t.Errorf("S reads metric = %d, engine = %d", got, s.Reads())
	}
}

// dedupeFaultLabels returns the distinct label sets of the fault series.
func dedupeFaultLabels(faults []Fault) []obs.Labels {
	seen := map[string]obs.Labels{}
	for _, f := range faults {
		key := fmt.Sprintf("%s/%d/%s", f.Channel, f.Replica, f.Reason)
		if _, ok := seen[key]; !ok {
			seen[key] = obs.Labels{"channel": f.Channel, "replica": fmt.Sprintf("%d", f.Replica), "reason": string(f.Reason)}
		}
	}
	out := make([]obs.Labels, 0, len(seen))
	for _, l := range seen {
		out = append(out, l)
	}
	return out
}

// TestInstrumentTraceRecordsTimeline checks the flight log InstrumentFlight
// records renders to fill-track counter samples and a fault marker.
func TestInstrumentTraceRecordsTimeline(t *testing.T) {
	fr := obs.NewFlightRecorder(0)
	sys := buildObserved(t, func(sys *System) { InstrumentFlight(sys, fr.Stream(0)) })
	if len(sys.Faults) == 0 {
		t.Fatal("expected a detection")
	}
	var buf bytes.Buffer
	if err := obs.RenderTrace(fr.Events()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ph":"C"`, `"name":"fill `, "convicted"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered trace lacks %s", want)
		}
	}
}

// BenchmarkSelectorHotPath measures the selector write+read loop with
// nothing armed (the seed-equivalent path plus its nil checks) and with
// the flight stream and its metrics sink armed, backing DESIGN.md §9's
// overhead methodology.
func BenchmarkSelectorHotPath(b *testing.B) {
	for _, mode := range []string{"disabled", "metrics"} {
		b.Run(mode, func(b *testing.B) {
			k := des.NewKernel()
			s := NewSelector(k, "S", [2]int{64, 64}, [2]int{0, 0}, 32, nil, nil)
			if mode == "metrics" {
				st := obs.NewFlightRecorder(0).Stream(0)
				st.SetMetrics(obs.NewRegistry())
				s.RecordFlight(st, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			k.Spawn("d", 0, func(p *des.Proc) {
				for i := 0; i < b.N; i++ {
					tok := kpn.Token{Seq: int64(i + 1)}
					s.WriterPort(1).Write(p, tok)
					s.WriterPort(2).Write(p, tok)
					s.ReaderPort().Read(p)
				}
			})
			k.Run(0)
			k.Shutdown()
		})
	}
}

package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/obs"
	"ftpn/internal/recover"
)

// TestObservedRunMetricIdentities runs a campaign-style fault+recovery
// execution with the flight recorder and its metrics sink attached and
// checks that the obs layer's view is identical to the engine's own
// counters.
func TestObservedRunMetricIdentities(t *testing.T) {
	app := ADPCMApp(false, 150)
	sizing, err := SizingFor(app)
	if err != nil {
		t.Fatal(err)
	}
	net, err := app.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, sizing.BuildConfig(app))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st := obs.NewFlightRecorder(0).Stream(0)
	st.SetMetrics(reg)
	ft.InstrumentFlight(sys, st)
	mgr := recover.NewManager(sys, recover.Plan{Delay: 10 * app.PeriodUs, MaxRecoveries: 1})
	mgr.RecordFlight(st)
	sys.InjectFault(2, des.Time(app.Tokens/3)*app.PeriodUs, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()
	if len(sys.Faults) == 0 {
		t.Fatal("observed run detected no fault")
	}
	events := func(channel string, replica int, kind string) int64 {
		return reg.Counter("ftpn_flight_events_total", "", obs.Labels{
			"channel": channel, "replica": fmt.Sprintf("%d", replica), "kind": kind}).Value()
	}

	// Replicator: the metrics relayed through the flight stream must
	// equal the engine counters exactly.
	rep := sys.Replicators[app.InChan]
	if got := events(app.InChan, 0, "write"); got != rep.Writes() {
		t.Errorf("rep writes metric = %d, engine %d", got, rep.Writes())
	}
	if got := events(app.InChan, 0, "drop-lost"); got != rep.Lost() {
		t.Errorf("rep lost metric = %d, engine %d", got, rep.Lost())
	}
	for i := 1; i <= 2; i++ {
		if got := events(app.InChan, i, "read"); got != rep.Reads(i) {
			t.Errorf("rep reads metric R%d = %d, engine %d", i, got, rep.Reads(i))
		}
	}

	// Selector: enqueued + duplicate drops = accepted writes, and the
	// resync drops of the re-integration match the engine.
	sel := sys.Selectors[app.OutChan]
	for i := 1; i <= 2; i++ {
		enq := events(app.OutChan, i, "enqueue")
		dup := events(app.OutChan, i, "drop-duplicate")
		rsd := events(app.OutChan, i, "drop-resync")
		if enq+dup != sel.Writes(i) {
			t.Errorf("sel R%d: enqueued %d + dup drops %d != writes %d", i, enq, dup, sel.Writes(i))
		}
		if dup != sel.Drops(i) {
			t.Errorf("sel R%d: dup drops metric = %d, engine %d", i, dup, sel.Drops(i))
		}
		if rsd != sel.ResyncDrops(i) {
			t.Errorf("sel R%d: resync drops metric = %d, engine %d", i, rsd, sel.ResyncDrops(i))
		}
	}
	if got := events(app.OutChan, 0, "read"); got != sel.Reads() {
		t.Errorf("sel reads metric = %d, engine %d", got, sel.Reads())
	}

	// Detection and recovery lifecycle: every engine fault is one
	// conviction (in the by-reason family and in the event family), and
	// each recovery is one count and one latency sample.
	type site struct {
		channel string
		replica int
	}
	reasons := map[ft.Fault]bool{}
	sites := map[site]bool{}
	for _, f := range sys.Faults {
		reasons[ft.Fault{Channel: f.Channel, Replica: f.Replica, Reason: f.Reason}] = true
		sites[site{f.Channel, f.Replica}] = true
	}
	var byReason, byKind int64
	for f := range reasons {
		byReason += reg.Counter("ftpn_flight_convictions_total", "", obs.Labels{
			"channel": f.Channel, "replica": fmt.Sprintf("%d", f.Replica), "reason": string(f.Reason),
		}).Value()
	}
	for s := range sites {
		byKind += events(s.channel, s.replica, obs.FlightConvict)
	}
	if byReason != int64(len(sys.Faults)) || byKind != int64(len(sys.Faults)) {
		t.Errorf("convictions by reason %d, by kind %d; engine recorded %d faults", byReason, byKind, len(sys.Faults))
	}
	if got := reg.Counter("ftpn_flight_recoveries_total", "", obs.Labels{"replica": "2"}).Value(); got != int64(len(mgr.Events())) {
		t.Errorf("recoveries metric = %d, manager performed %d", got, len(mgr.Events()))
	}
	if h := reg.Histogram("ftpn_flight_recovery_latency_us", "", nil, nil); h.Count() != int64(len(mgr.Events())) {
		t.Errorf("latency histogram count = %d, want %d", h.Count(), len(mgr.Events()))
	}
	if len(mgr.Events()) != 1 {
		t.Errorf("recoveries = %d, want 1", len(mgr.Events()))
	}
}

// chromeDoc mirrors the trace JSON shape for assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    int64          `json:"ts"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTraceTimeline(t *testing.T) {
	app := ADPCMApp(false, 120)
	var buf bytes.Buffer
	if err := WriteChromeTrace(app, &buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	counters := map[string]int{}
	markers := map[string]bool{}
	flows := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "s", "f":
			flows[ev.Phase]++
		case "C":
			counters[ev.Name]++
		case "i":
			for _, want := range []string{"inject", "fault R2", "convicted", "recovered R2", "resync start", "realigned"} {
				if strings.Contains(ev.Name, want) {
					markers[want] = true
				}
			}
		}
	}
	for _, track := range []string{"fill " + app.InChan, "fill " + app.OutChan} {
		if counters[track] == 0 {
			t.Errorf("no counter samples on track %q", track)
		}
	}
	for _, want := range []string{"inject", "fault R2", "convicted", "recovered R2", "resync start", "realigned"} {
		if !markers[want] {
			t.Errorf("no instant marker containing %q", want)
		}
	}
	// Each conviction's forensic chain is drawn as one flow.
	if flows["s"] == 0 || flows["s"] != flows["f"] {
		t.Errorf("flow starts %d, finishes %d: want one start/finish pair per conviction", flows["s"], flows["f"])
	}
}

package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ftpn/internal/obs"
)

// TestObservedRunMetricIdentities runs a campaign-style fault+recovery
// execution with the metrics registry attached and checks that the obs
// layer's view is identical to the engine's own counters.
func TestObservedRunMetricIdentities(t *testing.T) {
	app := ADPCMApp(false, 150)
	reg := obs.NewRegistry()
	sys, mgr, err := observedRun(app, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Faults) == 0 {
		t.Fatal("observed run detected no fault")
	}

	// Replicator: the metrics relayed through probes must equal the
	// engine counters exactly.
	rep := sys.Replicators[app.InChan]
	ch := obs.Labels{"channel": app.InChan}
	if got := reg.Counter("ftpn_ft_rep_writes_total", "", ch).Value(); got != rep.Writes() {
		t.Errorf("rep writes metric = %d, engine %d", got, rep.Writes())
	}
	if got := reg.Counter("ftpn_ft_rep_lost_total", "", ch).Value(); got != rep.Lost() {
		t.Errorf("rep lost metric = %d, engine %d", got, rep.Lost())
	}
	for i := 1; i <= 2; i++ {
		rl := obs.Labels{"channel": app.InChan, "replica": fmt.Sprintf("%d", i)}
		if got := reg.Counter("ftpn_ft_rep_reads_total", "", rl).Value(); got != rep.Reads(i) {
			t.Errorf("rep reads metric R%d = %d, engine %d", i, got, rep.Reads(i))
		}
	}

	// Selector: enqueued + duplicate drops = accepted writes, and the
	// resync drops of the re-integration match the engine.
	sel := sys.Selectors[app.OutChan]
	for i := 1; i <= 2; i++ {
		rl := obs.Labels{"channel": app.OutChan, "replica": fmt.Sprintf("%d", i)}
		enq := reg.Counter("ftpn_ft_sel_enqueued_total", "", rl).Value()
		dup := reg.Counter("ftpn_ft_sel_dup_drops_total", "", rl).Value()
		rsd := reg.Counter("ftpn_ft_sel_resync_drops_total", "", rl).Value()
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
	if got := reg.Counter("ftpn_ft_sel_reads_total", "", obs.Labels{"channel": app.OutChan}).Value(); got != sel.Reads() {
		t.Errorf("sel reads metric = %d, engine %d", got, sel.Reads())
	}

	// Detection and recovery lifecycle: every engine fault is one fault
	// metric increment and one conviction, and each scheduled conviction
	// is one started recovery.
	for _, name := range []string{"ftpn_ft_faults_total", "ftpn_recover_convictions_total"} {
		var total int64
		seen := map[string]bool{}
		for _, f := range sys.Faults {
			key := f.Channel + "|" + fmt.Sprintf("%d", f.Replica) + "|" + string(f.Reason)
			if seen[key] {
				continue
			}
			seen[key] = true
			total += reg.Counter(name, "", obs.Labels{
				"channel": f.Channel, "replica": fmt.Sprintf("%d", f.Replica), "reason": string(f.Reason),
			}).Value()
		}
		if total != int64(len(sys.Faults)) {
			t.Errorf("%s sums to %d, engine recorded %d faults", name, total, len(sys.Faults))
		}
	}
	started := reg.Counter("ftpn_recover_recoveries_started_total", "", obs.Labels{"replica": "2"}).Value()
	if started != int64(len(mgr.Events())) {
		t.Errorf("recoveries started metric = %d, manager performed %d", started, len(mgr.Events()))
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
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
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
}

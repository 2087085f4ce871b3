package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// chainLog is a synthetic canonical log covering every stage Explain
// reconstructs: inject → forgiven window fills → drop-value evidence →
// conviction → re-integration → recovery, with an unrelated healthy
// channel interleaved as noise.
func chainLog() []FlightEvent {
	return []FlightEvent{
		{At: 100, Kind: FlightInject, Reason: "corrupt", Replica: 2},
		{At: 110, Channel: "F_in", Kind: "write", Replica: 2, Fill: 1},
		{At: 115, Channel: "G_out", Kind: "write", Replica: 1, Fill: 1}, // noise
		{At: 120, Channel: "F_in", Kind: "forgiven", Reason: "late", Replica: 2, Fill: 2},
		{At: 130, Channel: "F_in", Kind: "drop-value", Replica: 2, Fill: 2},
		{At: 140, Channel: "F_in", Kind: "forgiven", Reason: "late", Replica: 2, Fill: 3},
		{At: 150, Channel: "F_in", Kind: FlightConvict, Reason: "value-divergence", Replica: 2, Fill: 4, Aux: 3},
		{At: 155, Channel: "G_out", Kind: "read", Replica: 1}, // noise
		{At: 180, Channel: "F_in", Kind: "reintegrate", Replica: 2, Fill: 2},
		{At: 181, Kind: FlightRecover, Reason: "value-divergence", Replica: 2, Fill: 4, Aux: 31},
	}
}

func TestExplainReconstructsChain(t *testing.T) {
	ex, ok := Explain(chainLog(), "F_in", 2, 150)
	if !ok {
		t.Fatal("Explain found no conviction")
	}
	if ex.Channel != "F_in" || ex.Replica != 2 || ex.Reason != "value-divergence" {
		t.Fatalf("identity = %q R%d %q", ex.Channel, ex.Replica, ex.Reason)
	}
	if ex.FaultMode != "corrupt" || ex.InjectedAt != 100 {
		t.Fatalf("injection = %q at %d, want corrupt at 100", ex.FaultMode, ex.InjectedAt)
	}
	if ex.ConvictedAt != 150 || ex.LatencyUs != 50 {
		t.Fatalf("convicted at %d latency %d, want 150 / 50", ex.ConvictedAt, ex.LatencyUs)
	}
	if ex.FirstViolationAt != 120 {
		t.Fatalf("first violation at %d, want first forgiven at 120", ex.FirstViolationAt)
	}
	if ex.Forgiven != 2 || len(ex.WindowFills) != 2 || ex.WindowFills[0] != 2 || ex.WindowFills[1] != 3 {
		t.Fatalf("forgiven = %d fills %v, want 2 fills [2 3]", ex.Forgiven, ex.WindowFills)
	}
	if ex.ValueDrops != 1 {
		t.Fatalf("value drops = %d, want 1", ex.ValueDrops)
	}
	if ex.FillAtConviction != 4 || ex.Divergence != 3 {
		t.Fatalf("fill/divergence = %d/%d, want 4/3", ex.FillAtConviction, ex.Divergence)
	}
	if ex.ReintegratedAt != 180 || ex.RecoveredAt != 181 {
		t.Fatalf("repair = %d/%d, want 180/181", ex.ReintegratedAt, ex.RecoveredAt)
	}
	// Chain: inject, 2×forgiven, drop-value, convict, reintegrate,
	// recover — in time order, noise excluded.
	if len(ex.Chain) != 7 {
		t.Fatalf("chain has %d events, want 7: %+v", len(ex.Chain), ex.Chain)
	}
	for i := 1; i < len(ex.Chain); i++ {
		if ex.Chain[i].At < ex.Chain[i-1].At {
			t.Fatalf("chain out of order at %d: %+v", i, ex.Chain)
		}
	}
	for _, ev := range ex.Chain {
		if ev.Channel == "G_out" {
			t.Fatalf("chain contains unrelated channel evidence: %+v", ev)
		}
	}
}

func TestExplainNoInjection(t *testing.T) {
	evs := []FlightEvent{
		{At: 50, Channel: "F_in", Kind: FlightConvict, Reason: "queue-full", Replica: 1, Fill: 4},
	}
	ex, ok := Explain(evs, "F_in", 1, 50)
	if !ok {
		t.Fatal("conviction not found")
	}
	if ex.InjectedAt != -1 || ex.LatencyUs != -1 || ex.FaultMode != "" {
		t.Fatalf("uninjected conviction must report -1 latency, got %+v", ex)
	}
	if ex.ReintegratedAt != -1 || ex.RecoveredAt != -1 {
		t.Fatalf("unrepaired conviction must report -1 repair times, got %+v", ex)
	}
	if ex.FirstViolationAt != 50 {
		t.Fatalf("first violation defaults to conviction instant, got %d", ex.FirstViolationAt)
	}
}

func TestExplainMissingConviction(t *testing.T) {
	if _, ok := Explain(chainLog(), "F_in", 1, 150); ok {
		t.Fatal("Explain matched the wrong replica")
	}
	if _, ok := Explain(chainLog(), "X", 2, 150); ok {
		t.Fatal("Explain matched the wrong channel")
	}
}

func TestExplainAll(t *testing.T) {
	log := chainLog()
	log = append(log, FlightEvent{At: 300, Channel: "G_out", Kind: FlightConvict, Reason: "divergence", Replica: 1})
	exs := ExplainAll(log)
	if len(exs) != 2 {
		t.Fatalf("explanations = %d, want 2", len(exs))
	}
	if exs[0].Channel != "F_in" || exs[1].Channel != "G_out" {
		t.Fatalf("order = %q, %q; want log order", exs[0].Channel, exs[1].Channel)
	}
	// The second conviction has no injection for replica 1.
	if exs[1].LatencyUs != -1 {
		t.Fatalf("G_out latency = %d, want -1", exs[1].LatencyUs)
	}
}

func TestExplanationJSONRoundTrip(t *testing.T) {
	ex, _ := Explain(chainLog(), "F_in", 2, 150)
	b, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back Explanation
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Channel != ex.Channel || back.LatencyUs != ex.LatencyUs || len(back.Chain) != len(ex.Chain) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, ex)
	}
}

// TestExplanationJSONKeys pins the marshalled keys: times carry a _us
// suffix, and the divergence, a token count, does not.
func TestExplanationJSONKeys(t *testing.T) {
	ex, _ := Explain(chainLog(), "F_in", 2, 150)
	b, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(b, &obj); err != nil {
		t.Fatal(err)
	}
	want := []string{"channel", "replica", "reason", "fault_mode",
		"injected_at_us", "first_violation_at_us", "convicted_at_us", "reintegrated_at_us", "recovered_at_us",
		"latency_us", "forgiven", "window_fills", "value_drops", "fill_at_conviction", "divergence", "chain"}
	for _, k := range want {
		if _, ok := obj[k]; !ok {
			t.Errorf("key %q missing from %s", k, b)
		}
	}
	if len(obj) != len(want) {
		t.Errorf("marshalled %d keys, want %d: %s", len(obj), len(want), b)
	}
	if got := string(obj["divergence"]); got != "3" {
		t.Errorf("divergence = %s, want the convict record's Aux 3", got)
	}
}

func TestAnnotateTraceFlow(t *testing.T) {
	ex, _ := Explain(chainLog(), "F_in", 2, 150)
	rec := NewTraceRecorder()
	ex.AnnotateTrace(rec, 7)
	// One instant + one flow phase per chain step.
	if got, want := rec.Events(), 2*len(ex.Chain); got != want {
		t.Fatalf("trace events = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph := ev["ph"].(string)
		phases[ph]++
		if ph == "s" || ph == "t" || ph == "f" {
			if id := ev["id"].(float64); id != 7 {
				t.Fatalf("flow event id = %v, want 7", id)
			}
			if bp := ev["bp"].(string); bp != "e" {
				t.Fatalf("flow bind point = %q, want e", bp)
			}
		}
	}
	if phases["s"] != 1 || phases["f"] != 1 {
		t.Fatalf("flow must begin and end exactly once: %v", phases)
	}
	if phases["t"] != len(ex.Chain)-2 {
		t.Fatalf("flow steps = %d, want %d", phases["t"], len(ex.Chain)-2)
	}
	// Nil receivers are no-ops.
	var nilEx *Explanation
	nilEx.AnnotateTrace(rec, 1)
	ex.AnnotateTrace(nil, 1)
}

// TestRenderTrace renders chainLog plus fill samples and checks the three
// views the timeline holds: fill counter tracks (one shared series for a
// channel with channel-wide reads), instant markers, and the forensic
// flow whose steps replace the markers of the events they cover.
func TestRenderTrace(t *testing.T) {
	log := append(chainLog(),
		FlightEvent{At: 190, Channel: "S", Kind: "enqueue", Replica: 1, Fill: 1},
		FlightEvent{At: 191, Channel: "S", Kind: "read", Fill: 0},
		FlightEvent{At: 192, Channel: "S", Kind: "aligned", Replica: 2, Fill: 0},
	)
	var buf bytes.Buffer
	if err := RenderTrace(log).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	series := map[string]bool{}
	var markers []string
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Phase]++
		switch ev.Phase {
		case "C":
			for s := range ev.Args {
				series[ev.Name+"/"+s] = true
			}
		case "i":
			markers = append(markers, ev.Name)
		}
	}
	// G_out's read is replica 1, so its queues are per-replica.
	for _, want := range []string{"fill S/S", "fill G_out/R1"} {
		if !series[want] {
			t.Errorf("no counter series %q in %v", want, series)
		}
	}
	// One marker per chain step (7) plus the unchained aligned event.
	if len(markers) != 8 {
		t.Errorf("markers = %d, want 8: %q", len(markers), markers)
	}
	for _, want := range []string{"inject corrupt into R2", "fault R2 on F_in convicted", "resync start R2 on F_in",
		"recovered R2", "realigned R2 on S", "value drop R2 on F_in", "forgiven R2 on F_in"} {
		found := false
		for _, m := range markers {
			found = found || bytes.Contains([]byte(m), []byte(want))
		}
		if !found {
			t.Errorf("no marker containing %q in %q", want, markers)
		}
	}
	if phases["s"] != 1 || phases["f"] != 1 || phases["t"] != 5 {
		t.Errorf("flow phases = %v, want one start, five steps, one finish", phases)
	}
}

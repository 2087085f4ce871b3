package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// TraceRecorder accumulates Chrome trace-event records (the JSON format
// consumed by Perfetto and chrome://tracing) describing one run as a
// timeline: counter tracks for queue fills, instant markers for faults,
// convictions and recovery phases, and flow arrows for forensic chains.
// Timestamps are in microseconds — the flight log's unit, so a DES run
// exports without conversion.
//
// Recorders are built from a finished flight log by RenderTrace; nothing
// records into one while a run is live.
type TraceRecorder struct {
	events []chromeEvent
	tids   map[string]int64 // track (thread) name -> tid
	order  []string
}

// chromeEvent is one record of the "JSON Array Format" trace spec.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`    // instant scope: g=global, p=process, t=thread
	ID    int64          `json:"id,omitempty"`   // flow binding id (s/t/f phases)
	BP    string         `json:"bp,omitempty"`   // flow bind point ("e": enclosing slice)
	Args  map[string]any `json:"args,omitempty"` // counter series / metadata
}

// tracePID is the single synthetic process id all tracks live under.
const tracePID = 1

// NewTraceRecorder returns an empty recorder.
func NewTraceRecorder() *TraceRecorder {
	return &TraceRecorder{tids: make(map[string]int64)}
}

// RenderTrace renders a finished flight log (canonical order, as
// FlightRecorder.Events returns it) as a Chrome-trace timeline:
//
//   - one queue-fill counter track per channel, "fill <channel>", fed by
//     enqueue and read events — series R1..Rn for per-replica queues,
//     one series S for a shared queue (a channel whose reads are
//     channel-wide, replica 0: the selector's FIFO);
//   - global instant markers for injections, convictions, forgiven
//     samples, value drops, re-integration (resync start → realigned)
//     and recoveries;
//   - one forensic flow per conviction (ExplainAll + AnnotateTrace),
//     whose chain steps carry the markers of the events they cover.
func RenderTrace(events []FlightEvent) *TraceRecorder {
	t := NewTraceRecorder()
	shared := map[string]bool{}
	for _, ev := range events {
		if ev.Kind == "read" && ev.Replica == 0 {
			shared[ev.Channel] = true
		}
	}
	exs := ExplainAll(events)
	chained := map[FlightEvent]bool{}
	for _, ex := range exs {
		for _, ev := range ex.Chain {
			chained[ev] = true
		}
	}
	for _, ev := range events {
		switch {
		case ev.Kind == "enqueue" || ev.Kind == "read":
			series := "S"
			if !shared[ev.Channel] {
				series = "R" + strconv.Itoa(ev.Replica)
			}
			t.counter("fill "+ev.Channel, series, ev.At, int64(ev.Fill))
		case !chained[ev]:
			if label := traceLabel(ev); label != "" {
				t.instant(label, ev.At)
			}
		}
	}
	for i := range exs {
		exs[i].AnnotateTrace(t, int64(i+1))
	}
	return t
}

// traceLabel names an event's timeline marker; "" for kinds that draw
// none (data-path events and kernel scheduler events).
func traceLabel(ev FlightEvent) string {
	on := fmt.Sprintf("R%d on %s", ev.Replica, ev.Channel)
	switch ev.Kind {
	case FlightInject:
		return fmt.Sprintf("inject %s into R%d", ev.Reason, ev.Replica)
	case FlightConvict:
		return fmt.Sprintf("fault %s convicted (%s; fill %d, divergence %d)", on, ev.Reason, ev.Fill, ev.Aux)
	case FlightRecover:
		return fmt.Sprintf("recovered %s (latency %dus)", on, ev.Aux)
	case "reintegrate":
		return fmt.Sprintf("resync start %s (fill %d)", on, ev.Fill)
	case "aligned":
		return "realigned " + on
	case "forgiven":
		return fmt.Sprintf("forgiven %s (fill %d, lead %d)", on, ev.Fill, ev.Aux)
	case "drop-value":
		return "value drop " + on
	}
	return ""
}

// tid returns the stable thread id for a named track, allocating the
// next id (in first-use order) when new.
func (t *TraceRecorder) tid(track string) int64 {
	if id, ok := t.tids[track]; ok {
		return id
	}
	id := int64(len(t.tids) + 1)
	t.tids[track] = id
	t.order = append(t.order, track)
	return id
}

// counter records a counter sample: the named series on the named
// counter track takes the given value at ts. Perfetto renders counter
// tracks as filled step plots — the queue-fill trajectories of the
// paper's Fig. 7.
func (t *TraceRecorder) counter(track, series string, ts, value int64) {
	t.events = append(t.events, chromeEvent{
		Name: track, Phase: "C", TS: ts, PID: tracePID,
		Args: map[string]any{series: value},
	})
}

// instant records a zero-duration marker visible across the whole
// timeline.
func (t *TraceRecorder) instant(name string, ts int64) {
	t.events = append(t.events, chromeEvent{
		Name: name, Phase: "i", TS: ts, PID: tracePID, Scope: "g",
	})
}

// flow records one flow-phase event ("s" start, "t" step, "f" finish)
// on the named track; events sharing (name, id) are drawn as a
// connected arrow sequence by Perfetto.
func (t *TraceRecorder) flow(phase, track, name string, id, ts int64) {
	t.events = append(t.events, chromeEvent{
		Name: name, Phase: phase, TS: ts, PID: tracePID, TID: t.tid(track),
		ID: id, BP: "e",
	})
}

// Events returns the number of recorded events (0 for nil).
func (t *TraceRecorder) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// WriteJSON writes the accumulated trace in the Chrome trace "JSON
// Object Format": thread-name metadata first (so Perfetto labels each
// track), then every event in record order.
func (t *TraceRecorder) WriteJSON(w io.Writer) error {
	all := make([]chromeEvent, 0, len(t.order)+1+len(t.events))
	all = append(all, chromeEvent{
		Name: "process_name", Phase: "M", PID: tracePID,
		Args: map[string]any{"name": "ftpn"},
	})
	for _, track := range t.order {
		all = append(all, chromeEvent{
			Name: "thread_name", Phase: "M", PID: tracePID, TID: t.tids[track],
			Args: map[string]any{"name": track},
		})
	}
	all = append(all, t.events...)
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: all, DisplayTimeUnit: "ms"}
	return json.NewEncoder(w).Encode(doc)
}

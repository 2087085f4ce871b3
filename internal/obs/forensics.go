package obs

import (
	"slices"
	"strconv"
)

// Explanation is the reconstructed causal chain behind one conviction:
// fault injection → first violating sample → (m,k) window fills →
// conviction → re-integration/recovery. All times are virtual µs; -1
// means the stage was not observed in the log (e.g. no harness-recorded
// injection, or the replica was never repaired).
type Explanation struct {
	Channel   string `json:"channel"`
	Replica   int    `json:"replica"`
	Reason    string `json:"reason"`               // conviction reason (queue-full, divergence, ...)
	FaultMode string `json:"fault_mode,omitempty"` // injected mode, from the inject event

	InjectedAt       int64 `json:"injected_at_us"`
	FirstViolationAt int64 `json:"first_violation_at_us"`
	ConvictedAt      int64 `json:"convicted_at_us"`
	ReintegratedAt   int64 `json:"reintegrated_at_us"`
	RecoveredAt      int64 `json:"recovered_at_us"`

	// LatencyUs is injection→conviction (-1 when no injection was
	// logged) — the quantity the analytic (m,k) detection bound caps.
	LatencyUs int64 `json:"latency_us"`

	// Forgiven counts the (m,k) window fills before conviction;
	// WindowFills holds the probe-reported fill at each of them.
	// ValueDrops counts replay value-check evidence (drop-value probes)
	// in the same window.
	Forgiven    int   `json:"forgiven"`
	WindowFills []int `json:"window_fills,omitempty"`
	ValueDrops  int   `json:"value_drops"`

	// FillAtConviction and Divergence are sampled by the fault hook at
	// conviction time (Divergence in µs of selector/replicator lead).
	FillAtConviction int   `json:"fill_at_conviction"`
	Divergence       int64 `json:"divergence_us"`

	// Chain is the supporting evidence in canonical log order: the
	// inject, forgiven, drop-value, convict, reintegrate and recover
	// events this explanation was reconstructed from.
	Chain []FlightEvent `json:"chain"`
}

// Explain reconstructs the causal chain for the conviction of replica
// on channel at the given time from a canonical event log (as returned
// by FlightRecorder.Events). The second result is false when the log
// holds no matching convict event.
func Explain(events []FlightEvent, channel string, replica int, at int64) (Explanation, bool) {
	for i, ev := range events {
		if ev.Kind == FlightConvict && ev.Channel == channel && ev.Replica == replica && ev.At == at {
			return explainAt(events, i), true
		}
	}
	return Explanation{}, false
}

// ExplainAll reconstructs one explanation per convict event in the log,
// in log order.
func ExplainAll(events []FlightEvent) []Explanation {
	var out []Explanation
	for i, ev := range events {
		if ev.Kind == FlightConvict {
			out = append(out, explainAt(events, i))
		}
	}
	return out
}

// explainAt builds the explanation for the convict event at index ci.
func explainAt(events []FlightEvent, ci int) Explanation {
	conv := events[ci]
	ex := Explanation{
		Channel:          conv.Channel,
		Replica:          conv.Replica,
		Reason:           conv.Reason,
		ConvictedAt:      conv.At,
		InjectedAt:       -1,
		FirstViolationAt: conv.At,
		ReintegratedAt:   -1,
		RecoveredAt:      -1,
		LatencyUs:        -1,
		FillAtConviction: conv.Fill,
		Divergence:       conv.Aux,
	}
	chain := []FlightEvent{conv}

	// Latest injection of this replica at or before the conviction.
	// Injections carry no channel (a replica-wide act), so match on
	// replica alone.
	injIdx := -1
	for i := ci - 1; i >= 0; i-- {
		ev := events[i]
		if ev.Kind == FlightInject && ev.Replica == conv.Replica {
			injIdx = i
			break
		}
	}
	if injIdx >= 0 {
		inj := events[injIdx]
		ex.InjectedAt = inj.At
		ex.FaultMode = inj.Reason
		ex.LatencyUs = conv.At - inj.At
		chain = append(chain, inj)
	}

	// Window evidence between injection (or the log start) and the
	// conviction: forgiven (m,k) fills and drop-value replay evidence
	// for the convicted (channel, replica).
	for i := injIdx + 1; i < ci; i++ {
		ev := events[i]
		if ev.Channel != conv.Channel || ev.Replica != conv.Replica {
			continue
		}
		switch ev.Kind {
		case "forgiven":
			if ex.Forgiven == 0 {
				ex.FirstViolationAt = ev.At
			}
			ex.Forgiven++
			ex.WindowFills = append(ex.WindowFills, ev.Fill)
			chain = append(chain, ev)
		case "drop-value":
			if ex.Forgiven == 0 && ex.ValueDrops == 0 {
				ex.FirstViolationAt = ev.At
			}
			ex.ValueDrops++
			chain = append(chain, ev)
		}
	}

	// Repair: first re-integration of the channel and first completed
	// recovery of the replica after the conviction.
	for i := ci + 1; i < len(events); i++ {
		ev := events[i]
		if ex.ReintegratedAt < 0 && ev.Kind == "reintegrate" &&
			ev.Channel == conv.Channel && ev.Replica == conv.Replica {
			ex.ReintegratedAt = ev.At
			chain = append(chain, ev)
		}
		if ex.RecoveredAt < 0 && ev.Kind == FlightRecover && ev.Replica == conv.Replica {
			ex.RecoveredAt = ev.At
			chain = append(chain, ev)
		}
		if ex.ReintegratedAt >= 0 && ex.RecoveredAt >= 0 {
			break
		}
	}

	slices.SortStableFunc(chain, func(a, b FlightEvent) int {
		if a.At != b.At {
			return int(a.At - b.At)
		}
		return 0
	})
	ex.Chain = chain
	return ex
}

// AnnotateTrace writes the explanation's causal chain into rec as a
// Chrome-trace flow (a named arrow sequence): one instant per chain
// step, connected by flow events sharing the given id. Perfetto draws
// the arrows from injection through the window fills to the conviction
// and repair.
func (ex *Explanation) AnnotateTrace(rec *TraceRecorder, id int64) {
	if rec == nil || ex == nil || len(ex.Chain) == 0 {
		return
	}
	track := "forensics " + ex.Channel
	name := "convict " + ex.Channel + " R" + strconv.Itoa(ex.Replica)
	for i, ev := range ex.Chain {
		label := ev.Kind
		if ev.Reason != "" {
			label += " (" + ev.Reason + ")"
		}
		rec.Instant(label, ev.At)
		switch {
		case i == 0:
			rec.FlowBegin(track, name, id, ev.At)
		case i == len(ex.Chain)-1:
			rec.FlowEnd(track, name, id, ev.At)
		default:
			rec.FlowStep(track, name, id, ev.At)
		}
	}
}

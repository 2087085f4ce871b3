// Package recover closes the loop from fault detection back to fault
// tolerance. The paper's framework detects a timing fault and then
// permanently isolates the convicted replica, leaving the system
// unprotected against a second fault. A Manager registers a fault hook
// on a duplicated system and, after a configurable repair delay
// (modelling replica restart or migration to a spare core),
// re-integrates the convicted replica on every arbitration channel and
// repairs its fault switch (ft.System.Reintegrate): stale tokens are
// drained, each replicator queue is re-armed with the newest
// min(capacity-1, healthy fill) tokens of the healthy replica's queue,
// and the selector interface re-synchronizes its pair index and
// virtual space counter at the healthy write front. Full redundancy is
// restored and the next fault is tolerated again.
//
// The Manager records recoveries, not convictions: Events, OnRecovered
// and the flight log's recover record. The channel state at conviction
// (fill, divergence) is in the flight log's convict record, which the
// detecting channel writes inside the convicting operation.
package recover

import (
	"ftpn/internal/des"
	"ftpn/internal/ft"
	"ftpn/internal/obs"
)

// Plan parameterizes recoveries issued by a Manager.
type Plan struct {
	// Delay is the virtual time between a replica's first conviction
	// and its repair + re-integration (restart/relocation cost).
	Delay des.Time
	// MaxRecoveries bounds how many recoveries the manager performs per
	// replica; 0 means unlimited. Campaign runs use 1 so a second
	// injected fault stays convicted and measurable.
	MaxRecoveries int
}

// Event records one completed recovery.
type Event struct {
	Replica     int
	DetectedAt  des.Time // first conviction that triggered this recovery
	RecoveredAt des.Time
	Detection   ft.Fault // the triggering conviction
	Complete    bool     // every channel accepted the re-integration
}

// Manager watches a duplicated system for convictions and schedules
// repair + re-integration per its plan. Create it with NewManager
// before running the kernel.
type Manager struct {
	sys  *ft.System
	plan Plan

	pending    [2]bool
	recoveries [2]int
	events     []Event

	// OnRecovered, when non-nil, observes each recovery as it
	// completes; campaign engines use it to schedule follow-up faults
	// deterministically.
	OnRecovered func(Event)

	flight *obs.FlightStream
}

// NewManager attaches a recovery manager to the system.
func NewManager(sys *ft.System, plan Plan) *Manager {
	m := &Manager{sys: sys, plan: plan}
	sys.AddFaultHook(m.onFault)
	return m
}

// Events returns the completed recoveries in order.
func (m *Manager) Events() []Event { return append([]Event(nil), m.events...) }

// RecordFlight mirrors each completed recovery into a flight-recorder
// stream as an obs.FlightRecover event (Aux = detection→recovery
// latency in virtual µs), closing the causal chain obs.Explain
// reconstructs; the stream's metrics count recoveries and their
// latency from it. Convictions themselves are recorded by the channels
// (ft.InstrumentFlight), whether or not a manager is attached. A nil
// stream is a no-op.
func (m *Manager) RecordFlight(st *obs.FlightStream) { m.flight = st }

// fill samples the detecting channel's queue fill at conviction: the
// convicted replica's queue for replicators, the shared FIFO for
// selectors. The recover record carries it.
func (m *Manager) fill(f ft.Fault) int {
	if r, ok := m.sys.Replicators[f.Channel]; ok {
		return r.Fill(f.Replica)
	}
	if s, ok := m.sys.Selectors[f.Channel]; ok {
		return s.Fill()
	}
	return 0
}

// onFault schedules a recovery for the convicted replica unless one is
// already pending or the per-replica budget is exhausted. Convictions
// of the same replica on multiple channels collapse into one recovery.
func (m *Manager) onFault(f ft.Fault) {
	i := f.Replica - 1
	if m.pending[i] || (m.plan.MaxRecoveries != 0 && m.recoveries[i] >= m.plan.MaxRecoveries) {
		return
	}
	m.pending[i] = true
	m.recoveries[i]++
	fill := m.fill(f)
	m.sys.K.At(f.At+m.plan.Delay, func() { m.recover(f, fill) })
}

// recover repairs the replica and re-integrates it on all channels
// within one kernel event (ft.System.Reintegrate); fill is the
// detecting channel's fill sampled at conviction.
func (m *Manager) recover(det ft.Fault, fill int) {
	complete := m.sys.Reintegrate(det.Replica)
	m.pending[det.Replica-1] = false
	ev := Event{
		Replica:     det.Replica,
		DetectedAt:  det.At,
		RecoveredAt: m.sys.K.Now(),
		Detection:   det,
		Complete:    complete,
	}
	m.events = append(m.events, ev)
	m.flight.Record(obs.FlightEvent{
		At:      ev.RecoveredAt,
		Channel: det.Channel,
		Kind:    obs.FlightRecover,
		Reason:  string(det.Reason),
		Replica: det.Replica,
		Fill:    fill,
		Aux:     ev.RecoveredAt - ev.DetectedAt,
	})
	if m.OnRecovered != nil {
		m.OnRecovered(ev)
	}
}

// Package recover closes the loop from fault detection back to fault
// tolerance. The paper's framework detects a timing fault and then
// permanently isolates the convicted replica, leaving the system
// unprotected against a second fault. A Manager subscribes to a
// duplicated system's detection events and, after a configurable repair
// delay (modelling replica restart or migration to a spare core),
// repairs the replica's fault switch and re-integrates it on every
// arbitration channel (ft.System.Reintegrate): stale tokens are
// drained, each replicator queue is re-armed with the newest
// min(capacity-1, healthy fill) tokens of the healthy replica's queue,
// and the selector interface re-synchronizes its pair index and
// virtual space counter at the healthy write front. Full redundancy is
// restored and the next fault is tolerated again.
package recover

import (
	"fmt"

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

// Conviction is one detection event enriched with the channel state
// sampled at the instant of conviction, so logs and the obs layer can
// attribute a fault without re-deriving engine state.
type Conviction struct {
	// Fault carries channel, replica, detection tick and reason.
	Fault ft.Fault
	// Divergence is how far the healthy side led the convicted replica
	// on the detecting channel when it was convicted (duplicate pairs
	// for selectors, consumed tokens for replicators).
	Divergence int64
	// Fill is the detecting channel's queue fill at conviction (the
	// convicted replica's queue for replicators, the shared FIFO for
	// selectors).
	Fill int
	// RecoveryScheduled reports whether this conviction triggered a
	// recovery (false when one was already pending for the replica or
	// the budget was exhausted).
	RecoveryScheduled bool
	// Policy names the detection policy that convicted ("" for the
	// inline first-violation path), Window its violation window at
	// conviction ("violations/k", e.g. "3/16" for an (m,k) policy).
	Policy string
	Window string
	// Kind distinguishes timing convictions from value (replay
	// cross-check) convictions.
	Kind ft.FaultKind
}

// String renders the conviction for logs.
func (c Conviction) String() string {
	pol := ""
	if c.Policy != "" {
		pol = fmt.Sprintf(", policy %s %s", c.Policy, c.Window)
	}
	return fmt.Sprintf("%s: R%d convicted at %dus (%s %s, divergence %d, fill %d%s)",
		c.Fault.Channel, c.Fault.Replica, c.Fault.At, c.Kind, c.Fault.Reason, c.Divergence, c.Fill, pol)
}

// Event records one completed recovery.
type Event struct {
	Replica     int
	DetectedAt  des.Time // first conviction that triggered this recovery
	RecoveredAt des.Time
	Detection   ft.Fault   // the triggering conviction
	Conviction  Conviction // the same conviction with channel state attached
	Complete    bool       // every channel accepted the re-integration
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

	// OnConvicted, when non-nil, observes every conviction with channel
	// state attached — including ones that do not schedule a recovery.
	OnConvicted func(Conviction)
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

// conviction samples the detecting channel's state for a fault.
func (m *Manager) conviction(f ft.Fault, scheduled bool) Conviction {
	c := Conviction{Fault: f, RecoveryScheduled: scheduled, Kind: f.Kind}
	if r, ok := m.sys.Replicators[f.Channel]; ok {
		c.Divergence = r.Divergence(f.Replica)
		c.Fill = r.Fill(f.Replica)
		c.Policy, c.Window = r.PolicyInfo(f.Replica, f.Reason)
	} else if s, ok := m.sys.Selectors[f.Channel]; ok {
		c.Divergence = s.Divergence(f.Replica)
		c.Fill = s.Fill()
		c.Policy, c.Window = s.PolicyInfo(f.Replica, f.Reason)
	}
	return c
}

// onFault schedules a recovery for the convicted replica unless one is
// already pending or the per-replica budget is exhausted. Convictions
// of the same replica on multiple channels collapse into one recovery.
func (m *Manager) onFault(f ft.Fault) {
	i := f.Replica - 1
	scheduled := !m.pending[i] &&
		(m.plan.MaxRecoveries == 0 || m.recoveries[i] < m.plan.MaxRecoveries)
	conv := m.conviction(f, scheduled)
	if m.OnConvicted != nil {
		m.OnConvicted(conv)
	}
	if !scheduled {
		return
	}
	m.pending[i] = true
	m.recoveries[i]++
	m.sys.K.At(f.At+m.plan.Delay, func() { m.recover(conv) })
}

// recover repairs the replica and re-integrates it on all channels
// within one kernel event (ft.System.Reintegrate).
func (m *Manager) recover(conv Conviction) {
	det := conv.Fault
	complete := m.sys.Reintegrate(det.Replica)
	m.pending[det.Replica-1] = false
	ev := Event{
		Replica:     det.Replica,
		DetectedAt:  det.At,
		RecoveredAt: m.sys.K.Now(),
		Detection:   det,
		Conviction:  conv,
		Complete:    complete,
	}
	m.events = append(m.events, ev)
	m.flight.Record(obs.FlightEvent{
		At:      ev.RecoveredAt,
		Channel: det.Channel,
		Kind:    obs.FlightRecover,
		Reason:  string(det.Reason),
		Replica: det.Replica,
		Fill:    conv.Fill,
		Aux:     ev.RecoveredAt - ev.DetectedAt,
	})
	if m.OnRecovered != nil {
		m.OnRecovered(ev)
	}
}

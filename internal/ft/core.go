package ft

import (
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/obs"
)

// Each arbitration channel is a clock-free core (ReplicatorState,
// SelectorState) holding every counter decision of §3.1 and §3.3 for
// n >= 2 replicas, inside a thin runtime shell that supplies the clock,
// receives convictions and parks blocked parties: des.Signal here, a
// mutex and sync.Cond in package crt.

// WaitOn names the condition a parked channel party waits for. A core
// operation that cannot proceed returns the condition instead of
// blocking, and the core calls its shell's wake function, in operation
// order, whenever a condition may have become true.
type WaitOn uint8

const (
	// Proceed: the operation completed; there is nothing to wait for.
	Proceed WaitOn = iota
	// WaitData: a reader waits for a token — replicator queue port, or
	// the selector's shared FIFO (port 0).
	WaitData
	// WaitSpace: a writer waits for space — selector interface port, or
	// the strict replicator's producer (port 0).
	WaitSpace
	// WaitResync: a resynchronizing selector interface waits for the
	// reference write front to advance (port 0).
	WaitResync
)

// verdict is one replica's detection state.
type verdict struct {
	faulty bool
	at     des.Time
	reason Reason
}

// detector is the detection bookkeeping both cores share: per-replica
// verdicts, the policy, the flight-stream output and the shell's
// callbacks.
type detector struct {
	name    string
	now     func() int64
	onFault FaultHandler
	// wake releases parties parked on (condition, 0-based port).
	wake func(w WaitOn, port int)
	v    []verdict
	// policy, when non-nil, arbitrates detection samples instead of the
	// inline first-violation conviction (see policy.go). Per-channel
	// instance; it is called only inside core operations.
	policy Policy
	flight flightTap
}

// flightTap is a channel's flight-recorder output (see RecordFlight).
type flightTap struct {
	st *obs.FlightStream
	// perUs is the shell clock's ticks per µs: 1 on the DES clock, 1000
	// on the wall clock's nanoseconds.
	perUs int64
	// state samples a convicted replica's queue fill and divergence.
	state func(replica int) (fill int, div int64)
}

func newDetector(name string, n int, now func() int64, onFault FaultHandler, wake func(WaitOn, int)) detector {
	return detector{name: name, now: now, onFault: onFault, wake: wake, v: make([]verdict, n)}
}

// Name returns the channel name.
func (d *detector) Name() string { return d.name }

// Replicas returns the channel's replica count n.
func (d *detector) Replicas() int { return len(d.v) }

// index converts a 1-based replica to a 0-based index, panicking when it
// is out of range.
func (d *detector) index(replica int) int {
	if replica < 1 || replica > len(d.v) {
		panic(fmt.Sprintf("ft: %s replica %d out of range [1,%d]", d.name, replica, len(d.v)))
	}
	return replica - 1
}

// emit records one channel event on the flight stream, timestamped by
// the shell's clock. The nil check stays inlinable so an unobserved
// channel pays no call.
func (d *detector) emit(kind ProbeKind, replica, fill int, lead int64) {
	if d.flight.st != nil {
		d.send(kind, replica, fill, lead)
	}
}

func (d *detector) send(kind ProbeKind, replica, fill int, lead int64) {
	d.record(d.now(), kind.String(), "", replica, fill, lead)
}

// record is the one place a core event — a channel event or a conviction,
// under either runtime — becomes a flight-log record, stamped in µs.
// Callers check that the output is armed.
func (d *detector) record(at int64, kind string, reason Reason, replica, fill int, aux int64) {
	t := &d.flight
	t.st.Record(obs.FlightEvent{At: at / t.perUs, Channel: d.name, Kind: kind,
		Reason: string(reason), Replica: replica, Fill: fill, Aux: aux})
}

// recordFlight arms the flight output, declaring the channel's event
// series to the stream's metrics; state samples conviction state.
func (d *detector) recordFlight(st *obs.FlightStream, perUs int64, state func(replica int) (int, int64)) {
	d.flight = flightTap{st: st, perUs: perUs, state: state}
	st.Declare(d.name, len(d.v), probeKindNames[:]...)
}

// flag marks replica r (0-based) faulty if it is not already, reporting
// the conviction once. The flight record samples the replica's fill and
// divergence inside the convicting operation.
func (d *detector) flag(r int, reason Reason) {
	if d.v[r].faulty {
		return
	}
	now := d.now()
	d.v[r] = verdict{faulty: true, at: now, reason: reason}
	if d.flight.st != nil {
		fill, div := d.flight.state(r + 1)
		d.record(now, obs.FlightConvict, reason, r+1, fill, div)
	}
	if d.onFault != nil {
		d.onFault(Fault{Channel: d.name, Replica: r + 1, At: now, Reason: reason, Kind: kindOf(reason)})
	}
}

// sample routes one detection-predicate evaluation through the policy.
// With no policy it reproduces the inline behavior: convict iff
// violated. forgiven reports a violation the policy chose to ride out
// (probe sites surface it as ProbeForgiven).
func (d *detector) sample(r int, reason Reason, violation bool) (convict, forgiven bool) {
	if d.policy == nil {
		return violation, false
	}
	convict = d.policy.Sample(r, reason, violation)
	return convict, violation && !convict
}

// judge samples a detection predicate for replica r (0-based) and either
// convicts it or reports a forgiven violation with the given fill and
// lead. A clean sample with no policy is a no-op the caller inlines.
func (d *detector) judge(r int, reason Reason, violation bool, fill int, lead int64) {
	if violation || d.policy != nil {
		d.rule(r, reason, violation, fill, lead)
	}
}

func (d *detector) rule(r int, reason Reason, violation bool, fill int, lead int64) {
	if convict, forgiven := d.sample(r, reason, violation); convict {
		d.flag(r, reason)
	} else if forgiven {
		d.emit(ProbeForgiven, r+1, fill, lead)
	}
}

// reinstate clears replica r's (0-based) conviction so detection re-arms
// for the next fault, and resets its policy window — a recovered
// replica starts with a clean violation history.
func (d *detector) reinstate(r int) {
	d.v[r].faulty = false
	if d.policy != nil {
		d.policy.Reset(r)
	}
}

// SetPolicy installs the channel's detection policy before the channel
// runs; nil keeps the paper's inline first-violation path.
func (d *detector) SetPolicy(p Policy) { d.policy = p }

// Faulty reports whether replica r (1-based) has been marked faulty, and
// if so when and why.
func (d *detector) Faulty(r int) (bool, des.Time, Reason) {
	v := d.v[d.index(r)]
	return v.faulty, v.at, v.reason
}

// NumFaulty returns how many replicas are currently convicted.
func (d *detector) NumFaulty() int {
	n := 0
	for _, v := range d.v {
		if v.faulty {
			n++
		}
	}
	return n
}

// checkCaps validates a channel's per-replica capacities.
func checkCaps(kind, name string, caps []int) {
	if len(caps) < 2 {
		panic(fmt.Sprintf("ft: %s %q needs at least 2 replicas, got %d", kind, name, len(caps)))
	}
	for _, c := range caps {
		if c <= 0 {
			panic(fmt.Sprintf("ft: %s %q capacities must be positive, got %v", kind, name, caps))
		}
	}
}

package crt

import (
	"fmt"
	"sync"
	"time"

	"ftpn/internal/ft"
	"ftpn/internal/obs"
)

// Fault is a detection event from a concurrent channel.
type Fault struct {
	Channel string
	Replica int // 1-based
	At      time.Duration
	Reason  string
	Kind    ft.FaultKind
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	return fmt.Sprintf("%s: replica R%d faulty at %v (%s)", f.Channel, f.Replica, f.At, f.Reason)
}

// FaultHandler receives detections; it is called with the channel lock
// released.
type FaultHandler func(Fault)

// lockShell is what both wall-clock channels wrap around their ft core:
// the mutex that serializes every core operation, the closed flag, and
// the convictions the core reported under the lock, delivered to the
// handler only after it is released.
type lockShell struct {
	mu      sync.Mutex
	clock   Clock
	closed  bool
	handler FaultHandler
	pending []Fault
}

func (l *lockShell) now() int64 { return int64(l.clock.Now()) }

// convict queues a core conviction for delivery after unlock.
func (l *lockShell) convict(f ft.Fault) {
	if l.handler != nil {
		l.pending = append(l.pending, Fault{Channel: f.Channel, Replica: f.Replica,
			At: time.Duration(f.At), Reason: string(f.Reason), Kind: f.Kind})
	}
}

// unlock releases the channel lock, then delivers the queued faults.
func (l *lockShell) unlock() {
	fire := l.pending
	if fire != nil {
		l.pending = nil
	}
	l.mu.Unlock()
	for _, f := range fire {
		l.handler(f)
	}
}

// locked reads a core accessor under the channel lock.
func locked[T any](l *lockShell, get func() T) T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return get()
}

// Replicator is the concurrent two-queue replicator with queue-full
// fault detection (§3.3), safe for one writer and two reader
// goroutines: an ft.ReplicatorState under one mutex, with readers
// parked on a sync.Cond per queue.
type Replicator struct {
	lockShell
	core     ft.ReplicatorState
	notEmpty [2]*sync.Cond
}

// NewReplicator builds a concurrent replicator.
func NewReplicator(clock Clock, name string, caps [2]int, handler FaultHandler) *Replicator {
	r := &Replicator{lockShell: lockShell{clock: clock, handler: handler}}
	r.notEmpty = [2]*sync.Cond{sync.NewCond(&r.mu), sync.NewCond(&r.mu)}
	// A non-strict replicator never makes its producer wait, so data in
	// a queue is the only condition the core can release.
	r.core = *ft.NewReplicatorState(name, caps[:], r.now, r.convict,
		func(_ ft.WaitOn, port int) { r.notEmpty[port].Broadcast() })
	return r
}

// SetPolicy installs the replicator's detection policy (nil keeps the
// inline first-violation path). The instance must not be shared with
// another channel: calls are serialized by this channel's lock only.
func (r *Replicator) SetPolicy(p ft.Policy) {
	r.mu.Lock()
	r.core.SetPolicy(p)
	r.mu.Unlock()
}

// RecordFlight mirrors the channel's events and convictions into
// st (nil disarms) through the emitter ft.InstrumentFlight arms on the
// simulated channels, stamped in wall-clock µs; a conviction's fill and
// divergence are sampled under the channel lock.
func (r *Replicator) RecordFlight(st *obs.FlightStream) {
	r.mu.Lock()
	r.core.RecordFlight(st, int64(time.Microsecond))
	r.mu.Unlock()
}

// Write duplicates the token into every healthy queue; a full queue
// convicts its replica and the producer never blocks. Returns false
// after Close.
func (r *Replicator) Write(tok Token) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.core.TryWrite(tok)
	r.unlock()
	return true
}

// Read blocks until replica's queue (1-based) has a token; ok is false
// once the replicator is closed and drained.
func (r *Replicator) Read(replica int) (Token, bool) {
	r.mu.Lock()
	for {
		tok, w := r.core.TryRead(replica)
		if w == ft.Proceed || r.closed {
			r.unlock()
			return tok, w == ft.Proceed
		}
		r.notEmpty[replica-1].Wait()
	}
}

// Reintegrate re-admits a repaired replica (1-based) exactly as
// ft.Replicator.Reintegrate does: its stale queue is re-armed with the
// newest min(fill, cap-1) tokens mirrored from the healthy replica's
// backlog, its read position is rebased, and its conviction is cleared;
// until its first read an overflow slides the queue instead of
// convicting. The other replica must be healthy (it is the reference);
// Reintegrate reports false and does nothing otherwise.
func (r *Replicator) Reintegrate(replica, fill int) bool {
	r.mu.Lock()
	ok := !r.closed && r.core.Reintegrate(replica, fill, 0)
	r.unlock()
	return ok
}

// Fill returns replica's (1-based) current queue fill.
func (r *Replicator) Fill(replica int) int {
	return locked(&r.lockShell, func() int { return r.core.Fill(replica) })
}

// Close wakes all blocked readers.
func (r *Replicator) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.notEmpty[0].Broadcast()
	r.notEmpty[1].Broadcast()
}

// Faulty reports replica's (1-based) conviction.
func (r *Replicator) Faulty(replica int) (bool, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ok, at, _ := r.core.Faulty(replica)
	return ok, time.Duration(at)
}

// Lost counts tokens written while both replicas were faulty.
func (r *Replicator) Lost() int64 { return locked(&r.lockShell, r.core.Lost) }

// Selector is the concurrent selector channel, safe for two writer
// goroutines and one reader: an ft.SelectorState under one mutex, with
// the reader, each writer interface and resynchronizing writers parked
// on their own sync.Cond.
type Selector struct {
	lockShell
	core       ft.SelectorState
	notEmpty   *sync.Cond
	notFull    [2]*sync.Cond
	resyncWait *sync.Cond
}

// NewSelector builds a concurrent selector with capacities, initial
// fills and the eq. 5 divergence threshold d (0 disables).
func NewSelector(clock Clock, name string, caps, inits [2]int, d int64, handler FaultHandler) *Selector {
	s := &Selector{lockShell: lockShell{clock: clock, handler: handler}}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = [2]*sync.Cond{sync.NewCond(&s.mu), sync.NewCond(&s.mu)}
	s.resyncWait = sync.NewCond(&s.mu)
	s.core = *ft.NewSelectorState(name, caps[:], inits[:], d, nil, s.now, s.convict,
		func(w ft.WaitOn, port int) { s.cond(w, port).Broadcast() })
	return s
}

func (s *Selector) cond(w ft.WaitOn, port int) *sync.Cond {
	switch w {
	case ft.WaitData:
		return s.notEmpty
	case ft.WaitSpace:
		return s.notFull[port]
	default:
		return s.resyncWait
	}
}

// SetPolicy installs the selector's detection policy (nil keeps the
// inline first-violation path). The instance must not be shared with
// another channel: calls are serialized by this channel's lock only.
func (s *Selector) SetPolicy(p ft.Policy) {
	s.mu.Lock()
	s.core.SetPolicy(p)
	s.mu.Unlock()
}

// RecordFlight mirrors the channel's events into st, as
// Replicator.RecordFlight does.
func (s *Selector) RecordFlight(st *obs.FlightStream) {
	s.mu.Lock()
	s.core.RecordFlight(st, int64(time.Microsecond))
	s.mu.Unlock()
}

// Reintegrate puts interface replica (1-based) into resynchronization
// exactly as ft.Selector.Reintegrate does: stale tokens still in its
// pipeline are discarded uncounted, and the first token at or just past
// the healthy interface's write front re-aligns its pair index, space
// counter and divergence base, clearing the conviction. The other
// interface must be healthy (it is the reference stream); Reintegrate
// reports false and does nothing otherwise.
func (s *Selector) Reintegrate(replica int) bool {
	s.mu.Lock()
	ok := !s.closed && s.core.Reintegrate(replica)
	s.unlock()
	return ok
}

// Write submits replica's (1-based) next token, blocking on the
// interface's own space only (Lemma 1). Returns false after Close.
func (s *Selector) Write(replica int, tok Token) bool {
	s.mu.Lock()
	for !s.closed {
		w := s.core.TryWrite(replica, tok)
		if w == ft.Proceed {
			s.unlock()
			return true
		}
		s.cond(w, replica-1).Wait()
	}
	s.unlock()
	return false
}

// Read blocks until a token is queued; ok is false once the selector is
// closed and drained.
func (s *Selector) Read() (Token, bool) {
	s.mu.Lock()
	for {
		tok, w := s.core.TryRead()
		if w == ft.Proceed || s.closed {
			s.unlock()
			return tok, w == ft.Proceed
		}
		s.notEmpty.Wait()
	}
}

// Close wakes everyone.
func (s *Selector) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notEmpty.Broadcast()
	s.notFull[0].Broadcast()
	s.notFull[1].Broadcast()
	s.resyncWait.Broadcast()
}

// Faulty reports replica's (1-based) conviction and reason.
func (s *Selector) Faulty(replica int) (bool, time.Duration, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok, at, reason := s.core.Faulty(replica)
	return ok, time.Duration(at), string(reason)
}

// Drops returns replica's (1-based) discarded late duplicates.
func (s *Selector) Drops(replica int) int64 {
	return locked(&s.lockShell, func() int64 { return s.core.Drops(replica) })
}

// Writes returns how many tokens interface replica (1-based) has
// written (counted writes only).
func (s *Selector) Writes(replica int) int64 {
	return locked(&s.lockShell, func() int64 { return s.core.Writes(replica) })
}

// ResyncDrops counts stale tokens interface replica (1-based) discarded
// uncounted during re-integration.
func (s *Selector) ResyncDrops(replica int) int64 {
	return locked(&s.lockShell, func() int64 { return s.core.ResyncDrops(replica) })
}

// Resyncing reports whether interface replica (1-based) is mid-resync.
func (s *Selector) Resyncing(replica int) bool {
	return locked(&s.lockShell, func() bool { return s.core.Resyncing(replica) })
}

// MaxFill returns the largest observed fill.
func (s *Selector) MaxFill() int { return locked(&s.lockShell, s.core.MaxFill) }

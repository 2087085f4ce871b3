// Package crt is the concurrent runtime: the same replicator/selector
// arbitration and counter-based fault detection as package ft, running
// on real goroutines and wall-clock time instead of the deterministic
// simulation kernel. Its channels are thin lock shells around ft's
// clock-free cores (ft.ReplicatorState, ft.SelectorState), so every
// counter decision is the one the simulation makes. Every experiment in
// the paper reproduction uses the des-based runtime for determinism;
// this package backs live demos and the wall-clock benchmark.
//
// Concurrency discipline: each replicator and selector runs every core
// operation under one mutex and parks blocked peers on a sync.Cond per
// core wait condition, mirroring the blocking FIFO semantics of Section
// 2; a conviction is therefore always consistent with the counter state
// that caused it, and fault handlers run after the lock is released.
// The core wakes a condition only when its predicate may have changed
// (a queue's emptiness, an interface's space), which on the paper's
// point-to-point channel topology (one goroutine per channel end) cuts
// futex traffic without changing who can proceed. The plain FIFO, whose
// two ends are single goroutines by construction, additionally has a
// lock-free ring fast path (see FIFO); LockedFIFO keeps the mutex-only
// implementation as the semantic oracle.
package crt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ftpn/internal/kpn"
)

// Token aliases the kpn token type: payload plus sequence number; the
// Stamp field holds wall-clock nanoseconds since the runtime's start.
type Token = kpn.Token

// Clock abstracts time so tests can run fast; WallClock is the real
// thing.
type Clock interface {
	// Now returns the time since the clock's epoch.
	Now() time.Duration
	// Sleep blocks for about d (best effort, like any OS timer).
	Sleep(d time.Duration)
}

// WallClock implements Clock over the host's monotonic clock.
type WallClock struct {
	epoch time.Time
}

// NewWallClock starts a wall clock with its epoch at the call.
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now()} }

// Now implements Clock.
func (c *WallClock) Now() time.Duration { return time.Since(c.epoch) }

// Sleep implements Clock.
func (c *WallClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// FIFO is a bounded blocking channel between ONE producer goroutine and
// ONE consumer goroutine — the shape of every point-to-point channel in
// the paper's process networks. The single-producer/single-consumer
// discipline is what licenses the fast path: a power-of-two ring
// indexed by monotonically increasing head/tail counters, each written
// by exactly one side, so a transfer through a non-empty, non-full FIFO
// is two atomic loads and one store per end with no lock and no
// allocation. The mutex+cond pair survives only as the blocking slow
// path, entered via a Dekker-style handshake: a side publishes its park
// flag before re-checking the counters, and the opposite side checks
// the flag after publishing its counter, so one of the two always sees
// the other and no wakeup is lost.
//
// For channels with several goroutines on one end, use LockedFIFO.
type FIFO struct {
	name     string
	capacity int
	mask     uint64
	buf      []Token

	// The counters live on separate cache lines so the producer's tail
	// stores do not invalidate the consumer's head line and vice versa.
	_    [64]byte
	head atomic.Uint64 // consumer position: next slot to read
	_    [64]byte
	tail atomic.Uint64 // producer position: next slot to write
	_    [64]byte

	rWait   atomic.Bool // consumer is parking/parked in the slow path
	wWait   atomic.Bool // producer is parking/parked in the slow path
	closed  atomic.Bool
	maxFill atomic.Int64 // producer-maintained watermark

	mu   sync.Mutex
	cond *sync.Cond
}

// NewFIFO creates a bounded FIFO.
func NewFIFO(name string, capacity int) *FIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("crt: FIFO %q capacity must be positive, got %d", name, capacity))
	}
	ring := 1
	for ring < capacity {
		ring <<= 1
	}
	f := &FIFO{name: name, capacity: capacity, mask: uint64(ring - 1), buf: make([]Token, ring)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Name returns the channel name.
func (f *FIFO) Name() string { return f.name }

// wake nudges whoever is parked in the slow path. Taking the mutex
// orders the broadcast against a parker that has set its flag but not
// yet reached cond.Wait (it still holds the mutex at that point).
func (f *FIFO) wake() {
	f.mu.Lock()
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Write blocks while the queue is full; it reports false once the FIFO
// is closed.
func (f *FIFO) Write(tok Token) bool {
	for {
		if f.closed.Load() {
			return false
		}
		t := f.tail.Load()
		if t-f.head.Load() < uint64(f.capacity) {
			f.buf[t&f.mask] = tok
			f.tail.Store(t + 1)
			// Re-reading head keeps the watermark from overshooting a
			// concurrent read; only the producer writes maxFill.
			if fill := int64(t + 1 - f.head.Load()); fill > f.maxFill.Load() {
				f.maxFill.Store(fill)
			}
			if f.rWait.Load() {
				f.wake()
			}
			return true
		}
		f.mu.Lock()
		f.wWait.Store(true)
		if f.tail.Load()-f.head.Load() < uint64(f.capacity) || f.closed.Load() {
			f.wWait.Store(false)
			f.mu.Unlock()
			continue
		}
		f.cond.Wait()
		f.wWait.Store(false)
		f.mu.Unlock()
	}
}

// Read blocks while the queue is empty; ok is false once the FIFO is
// closed and drained.
func (f *FIFO) Read() (tok Token, ok bool) {
	for {
		h := f.head.Load()
		if f.tail.Load() > h {
			tok = f.buf[h&f.mask]
			f.buf[h&f.mask] = Token{} // release the payload reference
			f.head.Store(h + 1)
			if f.wWait.Load() {
				f.wake()
			}
			return tok, true
		}
		if f.closed.Load() {
			// A token may have been published between the emptiness and
			// closed checks; drain it before reporting closed.
			if f.tail.Load() > h {
				continue
			}
			return Token{}, false
		}
		f.mu.Lock()
		f.rWait.Store(true)
		if f.tail.Load() > f.head.Load() || f.closed.Load() {
			f.rWait.Store(false)
			f.mu.Unlock()
			continue
		}
		f.cond.Wait()
		f.rWait.Store(false)
		f.mu.Unlock()
	}
}

// Close wakes all blocked parties; writes fail afterwards, reads drain.
func (f *FIFO) Close() {
	f.closed.Store(true)
	f.wake()
}

// MaxFill returns the largest fill level observed.
func (f *FIFO) MaxFill() int { return int(f.maxFill.Load()) }

// Fill returns the current fill level.
func (f *FIFO) Fill() int {
	t := f.tail.Load()
	h := f.head.Load()
	if h > t { // head advanced between the two loads
		return 0
	}
	return int(t - h)
}

// LockedFIFO is the original mutex+cond bounded blocking channel. It
// accepts any number of goroutines on either end and serves as the
// semantic oracle the lock-free FIFO fast path is tested against.
type LockedFIFO struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	name     string
	capacity int
	q        []Token
	closed   bool
	maxFill  int
}

// NewLockedFIFO creates a bounded mutex-only FIFO.
func NewLockedFIFO(name string, capacity int) *LockedFIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("crt: FIFO %q capacity must be positive, got %d", name, capacity))
	}
	f := &LockedFIFO{name: name, capacity: capacity}
	f.notEmpty = sync.NewCond(&f.mu)
	f.notFull = sync.NewCond(&f.mu)
	return f
}

// Name returns the channel name.
func (f *LockedFIFO) Name() string { return f.name }

// Write blocks while the queue is full; it reports false once the FIFO
// is closed.
func (f *LockedFIFO) Write(tok Token) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.q) >= f.capacity && !f.closed {
		f.notFull.Wait()
	}
	if f.closed {
		return false
	}
	f.q = append(f.q, tok)
	if len(f.q) > f.maxFill {
		f.maxFill = len(f.q)
	}
	f.notEmpty.Signal()
	return true
}

// Read blocks while the queue is empty; ok is false once the FIFO is
// closed and drained.
func (f *LockedFIFO) Read() (tok Token, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.q) == 0 && !f.closed {
		f.notEmpty.Wait()
	}
	if len(f.q) == 0 {
		return Token{}, false
	}
	tok = f.q[0]
	copy(f.q, f.q[1:])
	f.q = f.q[:len(f.q)-1]
	f.notFull.Signal()
	return tok, true
}

// Close wakes all blocked parties; writes fail afterwards, reads drain.
func (f *LockedFIFO) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.notEmpty.Broadcast()
	f.notFull.Broadcast()
}

// MaxFill returns the largest fill level observed.
func (f *LockedFIFO) MaxFill() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxFill
}

// Fill returns the current fill level.
func (f *LockedFIFO) Fill() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.q)
}

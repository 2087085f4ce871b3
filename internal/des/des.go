// Package des is a deterministic discrete-event simulation kernel with
// cooperative goroutine processes. It provides the virtual-time substrate
// on which the SCC platform model and the Kahn-process-network runtime
// execute: processes advance a shared virtual clock by sleeping
// (Proc.Delay) and blocking on conditions (Proc.Wait), and the kernel
// resumes exactly one process at a time, ordered by (time, sequence
// number), so every run of the same program is bit-identical.
//
// Control passes directly between goroutines. A yielding process runs
// the dispatch loop itself: it executes due callbacks inline and hands
// the processor straight to the next process to resume, one goroutine
// handoff per switch. When that next process is the yielding one, it
// just continues, with no switch at all. Control returns to the caller
// of Run only when the run ends.
//
// Time is in ticks; one tick is one microsecond of virtual time
// throughout this repository.
package des

import (
	"fmt"
	"slices"
)

// Time is an instant or duration of virtual time in ticks (microseconds).
type Time = int64

// event is a scheduled kernel action: resume a process or run a callback.
// Events are kernel-owned and recycled through a freelist once consumed,
// so steady-state scheduling does not allocate.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	proc *Proc  // non-nil: resume this process
	fn   func() // non-nil: run this callback in kernel context
	next *event // freelist link while the event is recycled
}

// Kernel is a discrete-event simulator. The zero value is not usable;
// create kernels with NewKernel.
type Kernel struct {
	now        Time
	seq        uint64
	events     eventQueue
	procs      []*Proc
	free       *event // freelist of consumed events, reused by push
	stopped    bool
	panicV     any    // panic to re-throw from Run
	dispatched uint64 // events consumed across all Run calls

	// The limit rule of the run in progress: the queue is probed with
	// probe, and only events at or before cut are dispatched.
	probe, cut Time
	// home receives control back from process goroutines when a run
	// ends, and from each process Shutdown terminates.
	home chan struct{}

	tracer func(TraceEvent)
}

// TraceEvent describes one scheduler action, for debugging simulations
// and timeline export (internal/obs). Kinds:
//
//	"spawn"    — process created
//	"resume"   — process handed the processor
//	"block"    — process parked on a Signal
//	"end"      — process body returned
//	"callback" — kernel-context callback ran
//	"stop"     — Stop was called
type TraceEvent struct {
	At   Time
	Kind string
	Proc string // process name, empty for kernel callbacks
}

// Trace installs a tracer invoked synchronously for every scheduler
// action (nil disables). Tracing is for debugging: it does not alter
// event order.
func (k *Kernel) Trace(fn func(TraceEvent)) { k.tracer = fn }

// emit reports a scheduler action to the tracer, if any.
func (k *Kernel) emit(kind, proc string) {
	if k.tracer != nil {
		k.tracer(TraceEvent{At: k.now, Kind: kind, Proc: proc})
	}
}

// NewKernel returns an empty simulator at virtual time 0, scheduling
// through the default event queue (the bucket queue unless the des_heap
// build tag selects the reference heap).
func NewKernel() *Kernel {
	return NewKernelWithQueue(defaultQueueKind)
}

// NewKernelWithQueue returns an empty simulator using an explicit event
// queue implementation. Both kinds dequeue in identical (time, FIFO)
// order; the choice affects host performance only.
func NewKernelWithQueue(kind QueueKind) *Kernel {
	return &Kernel{events: newQueue(kind), home: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run in kernel context at virtual time t (clamped to
// the current time if t is in the past). Use it for fault injection,
// pollers and other environment actions that are not processes.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.push(t, nil, fn)
}

// After schedules fn to run d ticks from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Every schedules fn to run every period ticks, starting at now+period,
// until the simulation ends or fn returns false.
func (k *Kernel) Every(period Time, fn func() bool) {
	if period <= 0 {
		panic(fmt.Sprintf("des: Every period must be positive, got %d", period))
	}
	var tick func()
	tick = func() {
		if k.stopped {
			return
		}
		if fn() {
			k.After(period, tick)
		}
	}
	k.After(period, tick)
}

// Stop ends the simulation: Run returns once the currently executing
// process yields. Pending events are discarded.
func (k *Kernel) Stop() {
	k.stopped = true
	k.emit("stop", "")
}

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// push schedules an event, reusing a recycled one when available.
func (k *Kernel) push(at Time, proc *Proc, fn func()) {
	e := k.free
	if e != nil {
		k.free = e.next
		e.next = nil
	} else {
		e = new(event)
	}
	e.at, e.proc, e.fn = at, proc, fn
	e.seq = k.seq
	k.seq++
	k.events.push(e)
}

// recycle returns a consumed (popped) event to the freelist.
func (k *Kernel) recycle(e *event) {
	e.proc, e.fn = nil, nil
	e.next = k.free
	k.free = e
}

// noLimit is the cut of a Run without a time limit.
const noLimit = Time(1<<63 - 1)

// Run executes the simulation until no events remain, the virtual clock
// would pass `until` (use a non-positive value for "no limit"), or Stop
// is called. It returns the virtual time at which the simulation settled.
// A panic inside any process is re-thrown from Run.
func (k *Kernel) Run(until Time) Time {
	if until > 0 {
		k.run(until, until)
	} else {
		k.run(0, noLimit)
	}
	return k.now
}

// run dispatches events under the limit rule (probe, cut) until the
// rule, an empty queue or Stop ends the run. The dispatch loop runs on
// whichever goroutine holds control: here until the first process
// resumes, then on process goroutines, which pass control directly to
// one another and send it back through k.home when the run ends.
func (k *Kernel) run(probe, cut Time) {
	k.probe, k.cut = probe, cut
	if p := k.nextProc(); p != nil {
		p.wake <- struct{}{}
		<-k.home
	}
	if v := k.panicV; v != nil {
		k.panicV = nil
		panic(v)
	}
}

// nextProc is the dispatch loop. It pops events in (time, FIFO) order,
// running callbacks inline, and returns the first process to resume,
// marked running, or nil when the run is over. A run that ends at the
// cut leaves the clock at the cut; one that empties the queue leaves it
// at the last dispatched instant.
func (k *Kernel) nextProc() *Proc {
	for !k.stopped && k.events.len() > 0 {
		// Probe first: an event past the limit stays queued untouched, so
		// a later Run call resumes with the original FIFO order intact.
		if t, ok := k.events.next(k.probe); !ok || t > k.cut {
			k.now = k.cut
			return nil
		}
		e := k.events.pop()
		k.dispatched++
		k.now = e.at
		if e.fn != nil {
			k.emit("callback", "")
			e.fn()
		} else if p := e.proc; p != nil && p.state != stateDone {
			k.emit("resume", p.name)
			k.recycle(e)
			p.state = stateRunning
			return p
		}
		k.recycle(e)
	}
	return nil
}

// step runs the dispatch loop on a process goroutine. A callback that
// panics there must neither unwind the process's stack nor pass for a
// panic of the process: step catches it, and run re-panics the raw
// value once control is back home.
func (k *Kernel) step() (next *Proc) {
	defer func() {
		if v := recover(); v != nil {
			k.panicV = v
			next = nil
		}
	}()
	return k.nextProc()
}

// pass hands control to process next, or back to the run caller when
// next is nil.
func (k *Kernel) pass(next *Proc) {
	if next == nil {
		k.home <- struct{}{}
		return
	}
	next.wake <- struct{}{}
}

// Blocked returns the names of processes that are blocked on a Signal,
// sorted for reproducible diagnostics. After Run returns, a non-empty
// result with no pending events indicates processes permanently stalled
// (e.g. consumers starved after a finite workload drained).
func (k *Kernel) Blocked() []string {
	var names []string
	for _, p := range k.procs {
		if p.state == stateBlocked {
			names = append(names, p.name)
		}
	}
	slices.Sort(names)
	return names
}

// NumProcs returns the number of processes ever spawned on the kernel.
func (k *Kernel) NumProcs() int { return len(k.procs) }

// Pending returns the number of scheduled events not yet dispatched.
// The shard runner (shard.go) uses it to distinguish an idle kernel
// from one whose events lie beyond the current horizon.
func (k *Kernel) Pending() int { return k.events.len() }

// Dispatched returns the total number of events the kernel has
// consumed across all Run calls — a progress counter for chunked
// execution and throughput benchmarks.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Shutdown terminates all process goroutines that have not finished,
// unwinding their stacks. Call it once after the final Run to avoid
// leaking goroutines; the kernel must not be used afterwards.
func (k *Kernel) Shutdown() {
	k.stopped = true
	for _, p := range k.procs {
		if p.state == stateDone {
			continue
		}
		p.killed = true
		p.wake <- struct{}{}
		<-k.home
	}
}

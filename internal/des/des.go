// Package des is a deterministic discrete-event simulation kernel with
// cooperative processes. It provides the virtual-time substrate on which
// the SCC platform model and the Kahn-process-network runtime execute:
// processes advance a shared virtual clock by sleeping (Proc.Delay) and
// blocking on conditions (Proc.Wait), and the kernel resumes exactly one
// process at a time, ordered by (time, sequence number), so every run of
// the same program is bit-identical.
//
// A process is one of two kinds. A coroutine process (Spawn) is an
// iter.Pull coroutine that only Run resumes. A yielding process runs the
// dispatch loop itself, executing due callbacks inline, and hands Run the
// next process to resume; when that is the yielding one, it just
// continues, with no switch at all. A step process (SpawnStep) is a
// state machine the dispatch loop calls inline, like a callback, at the
// instant it would resume a coroutine: it parks (Proc.Park) instead of
// blocking, so it never needs a goroutine or a switch.
//
// Time is in ticks; one tick is one microsecond of virtual time
// throughout this repository.
package des

import (
	"fmt"
	"runtime"
	"slices"
)

// Time is an instant or duration of virtual time in ticks (microseconds).
type Time = int64

// event is a scheduled kernel action: resume a process or run a callback.
// Events live by value in the kernel's eventQueue.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	proc *Proc  // non-nil: resume this process
	fn   func() // non-nil: run this callback in kernel context
}

// Kernel is a discrete-event simulator. The zero value is not usable;
// create kernels with NewKernel.
type Kernel struct {
	now        Time
	seq        uint64
	events     eventQueue
	procs      []*Proc
	stopped    bool
	panicV     any    // panic to re-throw from Run
	dispatched uint64 // events consumed across all Run calls
	stats      Stats

	// until is the time limit of the run in progress (<= 0: none).
	until Time
	// handoff is the process a suspending coroutine asks Run to resume
	// next (nil: the run is over).
	handoff *Proc
	// stepping is the step process whose step is running, if any.
	stepping *Proc

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

// NewKernel returns an empty simulator at virtual time 0. The event
// queue starts with room for 32 pending events: the paper apps, the
// campaign and the generated topologies keep at most 20 pending.
func NewKernel() *Kernel {
	return &Kernel{events: make(eventQueue, 0, 32)}
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

// push schedules an event behind every one already pending at its time.
func (k *Kernel) push(at Time, proc *Proc, fn func()) {
	k.events.push(event{at: at, seq: k.seq, proc: proc, fn: fn})
	k.seq++
}

// Run executes the simulation until no events remain, the virtual clock
// would pass `until` (use a non-positive value for "no limit"), or Stop
// is called. It returns the virtual time at which the simulation settled.
// A panic inside any process is re-thrown from Run.
func (k *Kernel) Run(until Time) Time {
	k.until = until
	for p := k.dispatch(); p != nil; p = k.handoff {
		// Switches bypass the Go scheduler, which on one P is also what
		// runs the GC's mark worker: without a yield now and then, a mark
		// phase drags on while the heap, and so peak RSS, overshoots.
		if k.stats.Switches++; k.stats.Switches%64 == 0 {
			runtime.Gosched()
		}
		p.resume()
	}
	if v := k.panicV; v != nil {
		k.panicV = nil
		panic(v)
	}
	return k.now
}

// nextProc is the dispatch loop. It pops events in (time, FIFO) order,
// running callbacks inline, and returns the first process to resume,
// marked running, or nil when the run is over. A run that ends at its
// time limit leaves the clock at the limit, or where it was if that is
// later; one that empties the queue leaves it at the last dispatched
// instant.
func (k *Kernel) nextProc() *Proc {
	for !k.stopped && len(k.events) > 0 {
		// An event past the limit stays queued untouched, so a later Run
		// call resumes with the original FIFO order intact.
		if k.until > 0 && k.events[0].at > k.until {
			k.now = max(k.now, k.until)
			return nil
		}
		e := k.events.pop()
		k.dispatched++
		k.now = e.at
		if e.fn != nil {
			k.stats.Callbacks++
			k.emit("callback", "")
			e.fn()
		} else if p := e.proc; p != nil && p.state != stateDone {
			k.emit("resume", p.name)
			p.state = stateRunning
			if p.step == nil {
				return p
			}
			k.runStep(p)
		}
	}
	return nil
}

// runStep runs one step of a step process inline.
func (k *Kernel) runStep(p *Proc) {
	// Steps, like switches, bypass the Go scheduler; on one P the GC's
	// mark worker needs a yield now and then (see Run). Counting steps
	// at the switch cadence let peak RSS overshoot; every 16 holds it.
	if k.stats.Steps++; k.stats.Steps%16 == 0 {
		runtime.Gosched()
	}
	k.stepping = p
	p.step(p)
	if p.state == stateRunning {
		panic("step returned without Park or Finish")
	}
	k.stepping = nil
}

// dispatch runs the dispatch loop for Run or inside a process coroutine.
// A callback that panics there must neither unwind a process's stack nor
// pass for a panic of a process: dispatch catches it for Run to re-panic
// raw. A step that panics ends its process, and Run re-panics the value
// wrapped with the process name, as for a coroutine.
func (k *Kernel) dispatch() (next *Proc) {
	defer func() {
		if v := recover(); v != nil {
			if p := k.stepping; p != nil {
				k.stepping = nil
				p.state, p.step = stateDone, nil
				v = fmt.Errorf("des: process %q panicked: %v", p.name, v)
			}
			k.panicV = v
			next = nil
		}
	}()
	return k.nextProc()
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

// Dispatched returns the total number of events the kernel has
// consumed across all Run calls — a progress counter for chunked
// execution and throughput benchmarks.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Stats counts scheduler actions across all Run calls. Every "resume"
// trace event is a switch, a self-resume or a step.
type Stats struct {
	Switches    uint64 // Run resumed a process's coroutine
	SelfResumes uint64 // a yielding process was the next to resume
	Steps       uint64 // a step process's step ran inline
	Callbacks   uint64 // kernel-context callbacks run
	Blocks      uint64 // Waits and Parks on a Signal
}

// Stats returns the scheduler counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Shutdown stops every unfinished process coroutine, unwinding its
// stack (one that never started never runs its body); a step process has
// no coroutine to stop. Call it once after the final Run to avoid
// leaking goroutines; the kernel must not be used afterwards.
func (k *Kernel) Shutdown() {
	k.stopped = true
	for _, p := range k.procs {
		if p.state != stateDone && p.stop != nil {
			p.stop()
		}
	}
}

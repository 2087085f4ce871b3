//go:build go1.23

package des

import (
	"fmt"
	"iter"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateReady   procState = iota // scheduled to run
	stateRunning                  // currently executing
	stateBlocked                  // waiting on a Signal
	stateDone                     // body returned
)

// Proc is a simulated process of one of two kinds. A coroutine process
// (Spawn) runs a body that advances virtual time by calling Delay and
// synchronizes with other processes via Signals and the structures built
// on them. A step process (SpawnStep) is a state machine: the dispatch
// loop calls its step function inline, with no coroutine, each time the
// process is resumed, and the step ends by calling Park or Finish. All
// Proc methods must be called from the process's own body or step.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	// step is a step process's step function (nil: a coroutine).
	step func(p *Proc)
	// The iter.Pull coroutine, which Run resumes and Shutdown stops.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
}

// Wait is what a process waits for: a Broadcast on a Signal (On) or a
// span of virtual time (For).
type Wait struct {
	sig *Signal
	d   Time
}

// On returns the wait for the next Broadcast on s.
func On(s *Signal) Wait { return Wait{sig: s} }

// For returns the wait of d ticks; a non-positive d yields the processor
// without advancing time, as Delay does.
func For(d Time) Wait { return Wait{d: d} }

// errKilled unwinds a process that Kernel.Shutdown stops mid-body.
type errKilled struct{}

// Spawn creates a process whose body starts, as a coroutine, at virtual
// time now+startDelay, strictly interleaved with all other processes.
func (k *Kernel) Spawn(name string, startDelay Time, body func(p *Proc)) *Proc {
	p := k.newProc(name, startDelay)
	p.resume, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		defer func() {
			v := recover()
			p.state = stateDone
			p.resume, p.suspend, p.stop = nil, nil, nil // release the body
			if _, killed := v.(errKilled); killed {
				return // stopped by Shutdown
			}
			k.emit("end", name)
			k.handoff = nil
			if v == nil {
				k.handoff = k.dispatch()
			} else {
				k.panicV = fmt.Errorf("des: process %q panicked: %v", name, v)
			}
		}()
		body(p)
	})
	return p
}

// SpawnStep creates a step process whose first step runs at virtual time
// now+startDelay. Each step runs inline in the dispatch loop at exactly
// the (time, sequence) instant a coroutine would be resumed, emits the
// same trace events, and must end with Park or Finish.
func (k *Kernel) SpawnStep(name string, startDelay Time, step func(p *Proc)) *Proc {
	p := k.newProc(name, startDelay)
	p.step = step
	return p
}

// newProc registers a process and queues its first resume.
func (k *Kernel) newProc(name string, startDelay Time) *Proc {
	if startDelay < 0 {
		panic(fmt.Sprintf("des: negative start delay %d for process %q", startDelay, name))
	}
	p := &Proc{k: k, name: name, state: stateReady}
	k.procs = append(k.procs, p)
	k.emit("spawn", name)
	k.push(k.now+startDelay, p, nil)
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Delay suspends the process for d ticks of virtual time. A non-positive
// d yields the processor without advancing time (the process is
// re-scheduled at the current instant, after already-pending events).
func (p *Proc) Delay(d Time) { p.Await(For(d)) }

// Await suspends a coroutine process until w is ready: Delay for a span,
// Wait for a Signal.
func (p *Proc) Await(w Wait) {
	p.Park(w)
	p.yield()
}

// Park registers the process to be resumed when w is ready, without
// giving up the processor: a step process ends its step with it, and the
// kernel runs the next step then. It queues the resume or joins the
// Signal's waiters exactly as Delay and Wait do.
func (p *Proc) Park(w Wait) {
	k := p.k
	if s := w.sig; s != nil {
		s.waiters = append(s.waiters, p)
		k.stats.Blocks++
		k.emit("block", p.name)
		p.state = stateBlocked
		return
	}
	d := w.d
	if d < 0 {
		d = 0
	}
	k.push(k.now+d, p, nil)
	p.state = stateReady
}

// Finish ends a step process: the current step is its last.
func (p *Proc) Finish() {
	p.state = stateDone
	p.step = nil // release the machine
	p.k.emit("end", p.name)
}

// yield gives up the processor and runs the dispatch loop inline until
// it finds the next process to resume. When that is p itself, yield
// returns without any switch; otherwise it names the next process (or
// nil: the run is over) and suspends p back to Run.
func (p *Proc) yield() {
	k := p.k
	next := k.dispatch()
	if next == p {
		k.stats.SelfResumes++
		return
	}
	k.handoff = next
	if !p.suspend(struct{}{}) {
		panic(errKilled{})
	}
}

// Signal is a wait queue processes can block on. The zero value is ready
// to use. Wakeups are FIFO and deterministic.
type Signal struct {
	waiters []*Proc
}

// Wait blocks the calling process until another process or a kernel
// callback calls Broadcast (or Wake reaches it). Typical use re-checks
// the guarded condition in a loop, as with sync.Cond.
func (p *Proc) Wait(s *Signal) { p.Await(On(s)) }

// Broadcast wakes all processes waiting on s at the current virtual
// time. It is safe to call from process bodies and kernel callbacks.
func (k *Kernel) Broadcast(s *Signal) {
	for _, w := range s.waiters {
		if w.state == stateBlocked {
			w.state = stateReady
			k.push(k.now, w, nil)
		}
	}
	s.waiters = s.waiters[:0]
}

// NumWaiters returns how many processes are currently waiting on s.
func (s *Signal) NumWaiters() int { return len(s.waiters) }

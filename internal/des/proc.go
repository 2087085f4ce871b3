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

// Proc is a simulated process: a coroutine that advances virtual time by
// calling Delay and synchronizes with other processes via Signals and the
// structures built on them. All Proc methods must be called from the
// process's own body function.
type Proc struct {
	k     *Kernel
	name  string
	state procState
	// The iter.Pull coroutine, which Run resumes and Shutdown stops.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
}

// errKilled unwinds a process that Kernel.Shutdown stops mid-body.
type errKilled struct{}

// Spawn creates a process whose body starts, as a coroutine, at virtual
// time now+startDelay, strictly interleaved with all other processes.
func (k *Kernel) Spawn(name string, startDelay Time, body func(p *Proc)) *Proc {
	if startDelay < 0 {
		panic(fmt.Sprintf("des: negative start delay %d for process %q", startDelay, name))
	}
	p := &Proc{k: k, name: name, state: stateReady}
	k.procs = append(k.procs, p)
	k.emit("spawn", name)
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
				k.handoff = k.step()
			} else {
				k.panicV = fmt.Errorf("des: process %q panicked: %v", name, v)
			}
		}()
		body(p)
	})
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
func (p *Proc) Delay(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.push(p.k.now+d, p, nil)
	p.yield(stateReady)
}

// yield gives up the processor, recording the new state, and runs the
// dispatch loop inline until it finds the next process to resume. When
// that is p itself, yield returns without any switch; otherwise it names
// the next process (or nil: the run is over) and suspends p back to Run.
func (p *Proc) yield(s procState) {
	p.state = s
	k := p.k
	next := k.step()
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
func (p *Proc) Wait(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.k.stats.Blocks++
	p.k.emit("block", p.name)
	p.yield(stateBlocked)
}

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

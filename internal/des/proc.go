package des

import "fmt"

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateReady   procState = iota // scheduled to run
	stateRunning                  // currently executing
	stateBlocked                  // waiting on a Signal
	stateDone                     // body returned
)

// Proc is a simulated process: a goroutine that advances virtual time by
// calling Delay and synchronizes with other processes via Signals and the
// structures built on them. All Proc methods must be called from the
// process's own body function.
type Proc struct {
	k      *Kernel
	name   string
	state  procState
	killed bool
	// wake hands the processor to this process, from the dispatcher or
	// from Shutdown. One slot of buffer lets the sender move on when the
	// goroutine has not parked yet, as on a new process's first resume.
	wake chan struct{}
}

// errKilled is the sentinel used by Kernel.Shutdown to unwind process
// goroutines that are still alive when the simulation is torn down.
type errKilled struct{}

// Spawn creates a process that starts executing body at virtual time
// now+startDelay. The body runs in its own goroutine but strictly
// interleaved with all other processes under kernel control.
func (k *Kernel) Spawn(name string, startDelay Time, body func(p *Proc)) *Proc {
	if startDelay < 0 {
		panic(fmt.Sprintf("des: negative start delay %d for process %q", startDelay, name))
	}
	p := &Proc{k: k, name: name, state: stateReady, wake: make(chan struct{}, 1)}
	k.procs = append(k.procs, p)
	k.emit("spawn", name)
	go func() {
		defer func() {
			v := recover()
			p.state = stateDone
			if p.killed { // terminated by Shutdown, which waits on k.home
				k.home <- struct{}{}
				return
			}
			k.emit("end", name)
			if v != nil {
				k.panicV = fmt.Errorf("des: process %q panicked: %v", name, v)
				k.home <- struct{}{}
				return
			}
			k.pass(k.step())
		}()
		<-p.wake
		if !p.killed {
			body(p)
		}
	}()
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
// dispatch loop on this goroutine until control passes on. When the
// next resumed process is p itself, yield returns without any goroutine
// switch; otherwise it hands control to the next process (or back to
// the Run caller) and parks until resumed.
func (p *Proc) yield(s procState) {
	p.state = s
	k := p.k
	next := k.step()
	if next == p {
		return
	}
	k.pass(next)
	<-p.wake
	if p.killed {
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

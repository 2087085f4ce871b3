package kpn

import (
	"fmt"

	"ftpn/internal/des"
)

// FIFO is a bounded channel with blocking, destructive reads and
// blocking writes — the communication primitive of the reference process
// network. It is single-simulation-threaded by construction (package
// des), so no locking is needed.
type FIFO struct {
	k        *des.Kernel
	name     string
	capacity int
	q        []Token
	head     int
	notEmpty des.Signal
	notFull  des.Signal

	reads, writes int64
	maxFill       int
}

// NewFIFO creates a bounded FIFO channel. Capacity must be positive.
func NewFIFO(k *des.Kernel, name string, capacity int) *FIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("kpn: FIFO %q capacity must be positive, got %d", name, capacity))
	}
	return &FIFO{k: k, name: name, capacity: capacity}
}

// PortName implements ReadPort and WritePort.
func (f *FIFO) PortName() string { return f.name }

// Capacity returns the channel's bounded capacity.
func (f *FIFO) Capacity() int { return f.capacity }

// Fill returns the current number of queued tokens.
func (f *FIFO) Fill() int { return len(f.q) - f.head }

// MaxFill returns the highest fill level ever observed (the paper's
// "Max. Observed Fill" row of Table 2).
func (f *FIFO) MaxFill() int { return f.maxFill }

// Reads and Writes return operation counters.
func (f *FIFO) Reads() int64  { return f.reads }
func (f *FIFO) Writes() int64 { return f.writes }

// Preload inserts tokens before the simulation starts, implementing the
// initial fill F_{C,0} of eq. 4. It must not overflow the capacity.
func (f *FIFO) Preload(toks []Token) {
	if f.Fill()+len(toks) > f.capacity {
		panic(fmt.Sprintf("kpn: preloading %d tokens overflows FIFO %q (cap %d, fill %d)",
			len(toks), f.name, f.capacity, f.Fill()))
	}
	f.q = append(f.q, toks...)
	if fill := f.Fill(); fill > f.maxFill {
		f.maxFill = fill
	}
}

// TryWrite implements WritePort: it waits while the queue is full.
func (f *FIFO) TryWrite(tok Token) (des.Wait, bool) {
	if f.Fill() >= f.capacity {
		return des.On(&f.notFull), false
	}
	f.q = append(f.q, tok)
	f.writes++
	if fill := f.Fill(); fill > f.maxFill {
		f.maxFill = fill
	}
	f.k.Broadcast(&f.notEmpty)
	return des.Wait{}, true
}

// Write implements WritePort: blocks while the queue is full.
func (f *FIFO) Write(p *des.Proc, tok Token) { WriteBlocking(p, f.TryWrite, tok) }

// TryRead implements ReadPort: it waits while the queue is empty.
func (f *FIFO) TryRead() (Token, des.Wait, bool) {
	if f.Fill() == 0 {
		return Token{}, des.On(&f.notEmpty), false
	}
	tok := f.q[f.head]
	f.q[f.head] = Token{} // release payload for GC
	f.head++
	f.reads++
	if f.head == len(f.q) { // compact when drained
		f.q = f.q[:0]
		f.head = 0
	} else if f.head > 1024 && f.head*2 > len(f.q) {
		f.q = append(f.q[:0], f.q[f.head:]...)
		f.head = 0
	}
	f.k.Broadcast(&f.notFull)
	return tok, des.Wait{}, true
}

// Read implements ReadPort: blocks while the queue is empty.
func (f *FIFO) Read(p *des.Proc) Token { return ReadBlocking(p, f.TryRead) }

var (
	_ ReadPort  = (*FIFO)(nil)
	_ WritePort = (*FIFO)(nil)
)

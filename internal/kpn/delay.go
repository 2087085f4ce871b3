package kpn

import (
	"fmt"

	"ftpn/internal/des"
)

// DelayedFIFO is a channel whose tokens become visible to the reader a
// fixed delay d after they are written: the RTC delay bound of the
// connection, the communication delay d of the paper's <p, j, d>
// interface triple. A token written at t is readable from t+d on, so
// the arrival curve the reader sees is the writer's shifted by d.
//
// Visibility is decided BY VALUE, not by event order: a record carries
// its maturity instant, and Read compares it against the current
// virtual time. A wakeup callback is scheduled at each maturity
// instant, but a reader that arrives at the same instant through some
// other path (a timer, another channel) observes the token whether or
// not that callback has run yet. The reader's block/resume pattern
// therefore depends only on the maturity instants, not on how the
// wakeup interleaves with other same-instant events.
//
// Writes never block: the framework sizes FIFOs analytically from the
// arrival and service curves (paper eqs. 3–8), so a correctly sized
// channel never backpressures and the bound is reported (MaxFill)
// rather than enforced. Capacity is kept as the nominal analytic bound
// for diagnostics.
type DelayedFIFO struct {
	k        *des.Kernel
	name     string
	capacity int
	delay    des.Time
	recs     []delayedRec
	head     int
	notEmpty des.Signal

	reads, writes int64
	maxFill       int
}

// delayedRec is one written token with its maturity instant. Maturity
// instants are nondecreasing in list order: each channel has a single
// writer and a fixed delay, so records can never mature out of order.
type delayedRec struct {
	at  des.Time
	tok Token
}

// NewDelayedFIFO creates a delayed channel on kernel k. The delay must
// be strictly positive: a zero-delay channel is the plain FIFO.
// Capacity is the nominal analytic bound (positive, diagnostics only).
func NewDelayedFIFO(k *des.Kernel, name string, capacity int, delay des.Time) *DelayedFIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("kpn: DelayedFIFO %q capacity must be positive, got %d", name, capacity))
	}
	if delay <= 0 {
		panic(fmt.Sprintf("kpn: DelayedFIFO %q delay must be positive, got %d", name, delay))
	}
	return &DelayedFIFO{k: k, name: name, capacity: capacity, delay: delay}
}

// PortName implements ReadPort and WritePort.
func (f *DelayedFIFO) PortName() string { return f.name }

// Capacity returns the nominal analytic bound (not enforced).
func (f *DelayedFIFO) Capacity() int { return f.capacity }

// Delay returns the channel's visibility delay.
func (f *DelayedFIFO) Delay() des.Time { return f.delay }

// Fill returns the number of tokens currently visible to the reader.
func (f *DelayedFIFO) Fill() int {
	now := f.k.Now()
	n := 0
	for i := f.head; i < len(f.recs) && f.recs[i].at <= now; i++ {
		n++
	}
	return n
}

// Queued returns the number of undelivered tokens, visible or not.
func (f *DelayedFIFO) Queued() int { return len(f.recs) - f.head }

// MaxFill returns the highest visible fill level observed at any
// maturity instant.
func (f *DelayedFIFO) MaxFill() int { return f.maxFill }

// Reads and Writes return operation counters.
func (f *DelayedFIFO) Reads() int64  { return f.reads }
func (f *DelayedFIFO) Writes() int64 { return f.writes }

// Preload inserts tokens visible from time 0, implementing the initial
// fill F_{C,0} of eq. 4.
func (f *DelayedFIFO) Preload(toks []Token) {
	for _, tok := range toks {
		f.recs = append(f.recs, delayedRec{at: 0, tok: tok})
		f.writes++
	}
	if q := f.Queued(); q > f.maxFill {
		f.maxFill = q
	}
}

// TryWrite implements WritePort: the token matures delay ticks from
// now. It never waits (see the type comment).
func (f *DelayedFIFO) TryWrite(tok Token) (des.Wait, bool) {
	at := f.k.Now() + f.delay
	f.recs = append(f.recs, delayedRec{at: at, tok: tok})
	f.writes++
	f.k.At(at, f.mature)
	return des.Wait{}, true
}

// Write implements WritePort; it never blocks.
func (f *DelayedFIFO) Write(p *des.Proc, tok Token) { WriteBlocking(p, f.TryWrite, tok) }

// mature runs at a record's maturity instant: bookkeeping and the
// reader wakeup. Token visibility does NOT depend on it.
func (f *DelayedFIFO) mature() {
	if fill := f.Fill(); fill > f.maxFill {
		f.maxFill = fill
	}
	f.k.Broadcast(&f.notEmpty)
}

// TryRead implements ReadPort: it waits while no mature token is
// available.
func (f *DelayedFIFO) TryRead() (Token, des.Wait, bool) {
	if f.head >= len(f.recs) || f.recs[f.head].at > f.k.Now() {
		return Token{}, des.On(&f.notEmpty), false
	}
	tok := f.recs[f.head].tok
	f.recs[f.head] = delayedRec{} // release payload for GC
	f.head++
	f.reads++
	if f.head == len(f.recs) { // compact when drained
		f.recs = f.recs[:0]
		f.head = 0
	} else if f.head > 1024 && f.head*2 > len(f.recs) {
		f.recs = append(f.recs[:0], f.recs[f.head:]...)
		f.head = 0
	}
	return tok, des.Wait{}, true
}

// Read implements ReadPort: blocks while no mature token is available.
func (f *DelayedFIFO) Read(p *des.Proc) Token { return ReadBlocking(p, f.TryRead) }

var (
	_ ReadPort  = (*DelayedFIFO)(nil)
	_ WritePort = (*DelayedFIFO)(nil)
)

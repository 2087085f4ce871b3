package kpn

import (
	"fmt"
	"math/rand"

	"ftpn/internal/des"
	"ftpn/internal/rtc"
)

// Behavior is the body of a process, given its bound input and output
// ports in the order the network's channels declare them.
type Behavior func(p *des.Proc, in []ReadPort, out []WritePort)

// Pacer generates the activation instants of a PJD-timed process
// deterministically: activation i occurs at i*Period + phase_i with
// phase_i uniform in [0, Jitter], respecting MinDist between consecutive
// activations. The produced trace always satisfies the model's arrival
// curves.
type Pacer struct {
	model rtc.PJD
	rng   *rand.Rand
	idx   int64
	last  des.Time
}

// NewPacer creates a pacer for the model, seeded deterministically.
func NewPacer(model rtc.PJD, seed int64) *Pacer {
	if err := model.Validate(); err != nil {
		panic(fmt.Sprintf("kpn: invalid pacer model: %v", err))
	}
	return &Pacer{model: model, rng: NewRand(seed), last: -1 << 62}
}

// Next returns the next activation instant (absolute virtual time).
func (pc *Pacer) Next() des.Time {
	at := pc.idx * pc.model.Period
	if pc.model.Jitter > 0 {
		at += pc.rng.Int63n(pc.model.Jitter + 1)
	}
	if d := pc.model.MinDist; d > 0 && at < pc.last+d {
		at = pc.last + d
	}
	if at < pc.last { // jitter must never reorder activations
		at = pc.last
	}
	pc.last = at
	pc.idx++
	return at
}

// WaitNext delays the process until the next activation instant. If the
// process is already past that instant (because it blocked on a
// channel), it proceeds immediately: blocking time counts against the
// activation budget.
func (pc *Pacer) WaitNext(p *des.Proc) {
	at := pc.Next()
	if d := at - p.Now(); d > 0 {
		p.Delay(d)
	}
}

// Producer returns a behavior that emits count tokens paced by the PJD
// model, with payloads from gen (which may be nil for timing-only
// tokens). Each token's Stamp is its production instant and Seq its
// index. The producer writes to every output port (normally one).
func Producer(model rtc.PJD, seed int64, count int64, gen func(i int64) []byte) Behavior {
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		pacer := NewPacer(model, seed)
		for i := int64(0); count <= 0 || i < count; i++ {
			pacer.WaitNext(p)
			var payload []byte
			if gen != nil {
				payload = gen(i)
			}
			tok := Token{Seq: i + 1, Stamp: p.Now(), Payload: payload}
			for _, o := range out {
				o.Write(p, tok)
			}
		}
	}
}

// WorkModel is the execution-time model of a transform process: a fixed
// base cost, a per-kilobyte cost on the input payload, and a uniform
// jitter in [0, JitterUs] capturing the paper's "design diversity ...
// captured by different jitter values".
type WorkModel struct {
	BaseUs   des.Time
	PerKBUs  des.Time
	JitterUs des.Time
}

// Duration returns a deterministic pseudo-random execution time for an
// input of the given size, drawn from the given source.
func (w WorkModel) Duration(rng *rand.Rand, bytes int) des.Time {
	d := w.BaseUs + w.PerKBUs*des.Time(bytes)/1024
	if w.JitterUs > 0 {
		d += rng.Int63n(w.JitterUs + 1)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Transform returns a behavior that repeatedly reads one token from its
// single input, computes for a work-model duration, and writes f's
// result to its single output. The input token's Seq is preserved, so a
// stream index assigned at the producer survives the whole pipeline —
// replica re-integration (package ft) relies on this to re-align a
// recovered replica's output stream even when the replica skipped
// tokens during its outage. Stamp is the completion instant. If f is
// nil the payload (and its PayloadMemo entry, if any) passes through
// unchanged.
func Transform(work WorkModel, seed int64, f func(i int64, payload []byte) []byte) Behavior {
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		if len(in) != 1 || len(out) != 1 {
			panic(fmt.Sprintf("kpn: Transform needs 1 input and 1 output, got %d/%d", len(in), len(out)))
		}
		rng := NewRand(seed)
		for i := int64(1); ; i++ {
			tok := in[0].Read(p)
			p.Delay(work.Duration(rng, tok.Size()))
			if f != nil {
				tok = Token{Seq: tok.Seq, Payload: f(i, tok.Payload)}
			}
			tok.Stamp = p.Now() // a nil f keeps the payload's memo entry
			out[0].Write(p, tok)
		}
	}
}

// Consumer returns a behavior that performs one blocking read per PJD
// activation, invoking onToken (which may be nil) with the arrival time
// of each token. A finite count stops the consumer after that many
// tokens; count <= 0 runs forever.
func Consumer(model rtc.PJD, seed int64, count int64, onToken func(now des.Time, tok Token)) Behavior {
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		if len(in) != 1 {
			panic(fmt.Sprintf("kpn: Consumer needs exactly 1 input, got %d", len(in)))
		}
		pacer := NewPacer(model, seed)
		for i := int64(0); count <= 0 || i < count; i++ {
			pacer.WaitNext(p)
			tok := in[0].Read(p)
			if onToken != nil {
				onToken(p.Now(), tok)
			}
		}
	}
}

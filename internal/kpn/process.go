package kpn

import (
	"fmt"
	"math/rand"

	"ftpn/internal/des"
	"ftpn/internal/rtc"
)

// Behavior is the body of a process, given its bound input and output
// ports in the order the network's channels declare them. The behaviors
// Producer, Consumer and Stage build, and so Transform, MemoTransform
// and MemoStage, are loops over a few blocking points written as step
// machines: des step processes that the kernel runs inline, with no
// coroutine switch. Each step continues where the last one parked, so a
// process blocks, delays and resumes at exactly the instants its loop
// would as a coroutine.
type Behavior interface {
	spawn(k *des.Kernel, name string, in []ReadPort, out []WritePort)
}

// Spawn starts b as process name on k at the current instant, bound to
// the ports.
func Spawn(k *des.Kernel, name string, b Behavior, in []ReadPort, out []WritePort) {
	b.spawn(k, name, in, out)
}

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

// Producer returns a behavior that emits count tokens paced by the PJD
// model, with payloads from gen (which may be nil for timing-only
// tokens). Each token's Stamp is its production instant and Seq its
// index. The producer writes to every output port (normally one).
func Producer(model rtc.PJD, seed int64, count int64, gen func(i int64) []byte) Behavior {
	return &paced{model: model, seed: seed, count: count, gen: gen}
}

// Consumer returns a behavior that performs one blocking read per PJD
// activation, invoking onToken (which may be nil) with the arrival time
// of each token. A finite count stops the consumer after that many
// tokens; count <= 0 runs forever.
func Consumer(model rtc.PJD, seed int64, count int64, onToken func(now des.Time, tok Token)) Behavior {
	return &paced{model: model, seed: seed, count: count, onToken: onToken, consumer: true}
}

// paced is the behavior of Producer and Consumer: once per activation,
// a producer writes one token to every output, a consumer reads one. A
// process already past its next activation instant (because it blocked
// on a channel) proceeds at once: blocking time counts against the
// activation budget.
type paced struct {
	model       rtc.PJD
	seed, count int64
	consumer    bool
	gen         func(i int64) []byte
	onToken     func(now des.Time, tok Token)
}

func (b *paced) spawn(k *des.Kernel, name string, in []ReadPort, out []WritePort) {
	k.SpawnStep(name, 0, (&pacing{paced: b, in: in, out: out}).step)
}

// pacing is one process running a paced behavior.
type pacing struct {
	*paced
	in    []ReadPort
	out   []WritePort
	pacer *Pacer
	i     int64 // activations completed
	tok   Token // the token being written
	o     int   // next output to write
	at    uint8 // pacingStart, pacingNext, pacingFire or pacingIO
}

const (
	pacingStart = iota // the first step: set up
	pacingNext         // wait for the next activation
	pacingFire         // the activation: a producer builds its token
	pacingIO           // the activation's read, or its writes
)

func (m *pacing) step(p *des.Proc) {
	for {
		switch m.at {
		case pacingStart:
			if m.consumer && len(m.in) != 1 {
				panic(fmt.Sprintf("kpn: Consumer needs exactly 1 input, got %d", len(m.in)))
			}
			m.pacer = NewPacer(m.model, m.seed)
			m.at = pacingNext
		case pacingNext:
			if m.count > 0 && m.i >= m.count {
				p.Finish()
				return
			}
			m.at = pacingFire
			if d := m.pacer.Next() - p.Now(); d > 0 {
				p.Park(des.For(d))
				return
			}
		case pacingFire:
			if !m.consumer {
				var payload []byte
				if m.gen != nil {
					payload = m.gen(m.i)
				}
				m.tok = Token{Seq: m.i + 1, Stamp: p.Now(), Payload: payload}
			}
			m.at = pacingIO
		case pacingIO:
			if m.consumer {
				tok, w, ok := m.in[0].TryRead()
				if !ok {
					p.Park(w)
					return
				}
				if m.onToken != nil {
					m.onToken(p.Now(), tok)
				}
			} else {
				for ; m.o < len(m.out); m.o++ {
					if w, ok := m.out[m.o].TryWrite(m.tok); !ok {
						p.Park(w)
						return
					}
				}
				m.tok, m.o = Token{}, 0
			}
			m.i++
			m.at = pacingNext
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

// Stage returns a behavior that fires repeatedly. Each firing reads one
// token from every input, in the order the network binds them, computes
// for the work model's duration of the inputs' total size, then calls
// fire to fill one token per output and writes out[j] to output j,
// stamped with the firing's completion instant. i counts firings from 1.
// ins and outs are the port counts the stage must be bound to, 0 for
// any positive count. in and out are the process's own buffers, reused
// by the next firing, so fire must not keep them.
func Stage(work WorkModel, seed int64, ins, outs int, fire func(i int64, in, out []Token)) Behavior {
	return &stage{work: work, seed: seed, ins: ins, outs: outs, fire: fire}
}

// Transform returns a behavior that repeatedly reads one token from its
// single input, computes for a work-model duration, and writes f's
// result to its single output. The input token's Seq is preserved, so a
// stream index assigned at the producer survives the whole pipeline —
// replica re-integration (package ft) relies on this to re-align a
// recovered replica's output stream even when the replica skipped
// tokens during its outage. Stamp is the completion instant. f's index
// is the firing count. If f is nil the payload (and its PayloadMemo
// entry, if any) passes through unchanged.
func Transform(work WorkModel, seed int64, f func(i int64, payload []byte) []byte) Behavior {
	return Stage(work, seed, 1, 1, func(i int64, in, out []Token) {
		out[0] = in[0]
		if f != nil {
			out[0] = Token{Seq: in[0].Seq, Payload: f(i, in[0].Payload)}
		}
	})
}

// stage is the behavior Stage returns.
type stage struct {
	work      WorkModel
	seed      int64
	ins, outs int
	fire      func(i int64, in, out []Token)
}

func (b *stage) spawn(k *des.Kernel, name string, in []ReadPort, out []WritePort) {
	k.SpawnStep(name, 0, (&staging{stage: b, in: in, out: out}).step)
}

// staging is one process running a stage.
type staging struct {
	*stage
	in    []ReadPort
	out   []WritePort
	rng   *rand.Rand
	fired int64   // firings begun
	toks  []Token // the firing's inputs
	made  []Token // the firing's outputs
	j     int     // next input to read or output to write
	at    uint8   // stagingStart, stagingRead, stagingFire or stagingWrite
}

const (
	stagingStart = iota // the first step: check the ports, set up
	stagingRead         // read every input, then wait out the work
	stagingFire         // fill the output tokens
	stagingWrite        // write each to its output
)

func (m *staging) step(p *des.Proc) {
	for {
		switch m.at {
		case stagingStart:
			if !arity(len(m.in), m.ins) || !arity(len(m.out), m.outs) {
				panic(fmt.Sprintf("kpn: stage %q bound to %d inputs and %d outputs", p.Name(), len(m.in), len(m.out)))
			}
			m.rng = NewRand(m.seed)
			m.toks = make([]Token, len(m.in))
			m.made = make([]Token, len(m.out))
			m.at = stagingRead
		case stagingRead:
			for ; m.j < len(m.in); m.j++ {
				tok, w, ok := m.in[m.j].TryRead()
				if !ok {
					p.Park(w)
					return
				}
				m.toks[m.j] = tok
			}
			total := 0
			for _, tok := range m.toks {
				total += tok.Size()
			}
			m.fired++
			m.j, m.at = 0, stagingFire
			p.Park(des.For(m.work.Duration(m.rng, total)))
			return
		case stagingFire:
			m.fire(m.fired, m.toks, m.made)
			now := p.Now()
			for j := range m.made {
				m.made[j].Stamp = now
			}
			clear(m.toks) // the inputs die with the firing
			m.at = stagingWrite
		case stagingWrite:
			for ; m.j < len(m.out); m.j++ {
				if w, ok := m.out[m.j].TryWrite(m.made[m.j]); !ok {
					p.Park(w)
					return
				}
			}
			clear(m.made)
			m.j, m.at = 0, stagingRead
		}
	}
}

// arity reports whether a stage bound to n ports of one direction can
// fire, when it asks for want of them (0: any positive number).
func arity(n, want int) bool { return n > 0 && (want == 0 || n == want) }

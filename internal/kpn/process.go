package kpn

import (
	"fmt"
	"math/rand"

	"ftpn/internal/des"
	"ftpn/internal/rtc"
)

// Behavior is the body of a process, given its bound input and output
// ports in the order the network's channels declare them. It has one of
// two forms. A Body is a coroutine: it may block in any port operation
// or delay, anywhere in its code. The behaviors built by Producer,
// Consumer, Transform, MemoTransform and MemoStage are loops over a few
// blocking points, so they are step machines instead: des step
// processes that the kernel runs inline, with no coroutine switch. Each
// step continues where the last one parked, so a step process blocks,
// delays and resumes at exactly the instants its loop written as a Body
// would. Spawn picks the process kind from the form.
type Behavior interface {
	spawn(k *des.Kernel, name string, in []ReadPort, out []WritePort)
}

// Body is a behavior written as a coroutine body.
type Body func(p *des.Proc, in []ReadPort, out []WritePort)

func (b Body) spawn(k *des.Kernel, name string, in []ReadPort, out []WritePort) {
	k.Spawn(name, 0, func(p *des.Proc) { b(p, in, out) })
}

// Spawn starts b as process name on k at the current instant, bound to
// the ports: a coroutine process for a Body, a step process for the
// library's step machines.
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
	return &stageLoop{kind: transformKind, work: work, seed: seed, each: f}
}

// stageLoop is the behavior of Transform, MemoTransform and MemoStage: each
// firing reads one token from every input, computes for the work
// model's duration of the total input size, and writes one token to
// every output.
type stageLoop struct {
	kind  stageKind
	work  WorkModel
	seed  int64
	memo  *PayloadMemo
	table *memoTable // the stage's memo table (nil with a nil memo)
	name  string     // MemoStage's stage name
	each  func(i int64, payload []byte) []byte
	all   func(i int64, ins [][]byte) []byte
}

// stageKind selects how a stage fires and what it checks its ports for.
type stageKind uint8

const (
	transformKind     stageKind = iota // Transform: f(firing index, payload)
	memoTransformKind                  // MemoTransform: memoized f(Seq, payload)
	memoStageKind                      // MemoStage: memoized f(Seq, all payloads)
)

func (b *stageLoop) spawn(k *des.Kernel, name string, in []ReadPort, out []WritePort) {
	k.SpawnStep(name, 0, (&staging{stageLoop: b, in: in, out: out}).step)
}

// staging is one process running a stageLoop.
type staging struct {
	*stageLoop
	in    []ReadPort
	out   []WritePort
	rng   *rand.Rand
	fired int64   // firings begun
	toks  []Token // the firing's inputs
	tok   Token   // the firing's output
	j     int     // next input to read or output to write
	at    uint8   // stagingStart, stagingRead, stagingFire or stagingWrite
}

const (
	stagingStart = iota // the first step: check the ports, set up
	stagingRead         // read every input, then wait out the work
	stagingFire         // compute the output token
	stagingWrite        // write it to every output
)

func (m *staging) step(p *des.Proc) {
	for {
		switch m.at {
		case stagingStart:
			m.checkPorts()
			m.rng = NewRand(m.seed)
			m.toks = make([]Token, len(m.in))
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
			m.tok = m.fire(p.Now())
			clear(m.toks) // the inputs die with the firing
			m.at = stagingWrite
		case stagingWrite:
			for ; m.j < len(m.out); m.j++ {
				if w, ok := m.out[m.j].TryWrite(m.tok); !ok {
					p.Park(w)
					return
				}
			}
			m.tok = Token{}
			m.j, m.at = 0, stagingRead
		}
	}
}

// checkPorts panics, on the process's first step, when the stage is
// bound to ports it cannot fire on.
func (m *staging) checkPorts() {
	if m.kind == memoStageKind {
		if len(m.in) == 0 || len(m.out) == 0 {
			panic(fmt.Sprintf("kpn: MemoStage %q needs at least 1 input and 1 output, got %d/%d", m.name, len(m.in), len(m.out)))
		}
	} else if len(m.in) != 1 || len(m.out) != 1 {
		panic(fmt.Sprintf("kpn: Transform needs 1 input and 1 output, got %d/%d", len(m.in), len(m.out)))
	}
}

// fire computes the firing's output token, stamped now.
func (m *staging) fire(now des.Time) Token {
	in := m.toks[0]
	switch {
	case m.kind == transformKind && m.each != nil:
		return Token{Seq: in.Seq, Stamp: now, Payload: m.each(m.fired, in.Payload)}
	case m.kind == memoTransformKind:
		return m.memo.token(m.table, in.Seq, now, func() []byte { return m.each(in.Seq, in.Payload) })
	case m.kind == memoStageKind && m.all != nil:
		return m.memo.token(m.table, in.Seq, now, func() []byte {
			ins := make([][]byte, len(m.toks))
			for i := range m.toks {
				ins[i] = m.toks[i].Payload
			}
			return m.all(in.Seq, ins)
		})
	}
	in.Stamp = now // a pass-through keeps the payload's memo entry
	return in
}

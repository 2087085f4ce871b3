package kpn

import (
	"fmt"

	"ftpn/internal/des"
)

// Body is a behavior written as a coroutine body: it may block in any
// port operation or delay, anywhere in its code. Tests use it for the
// oracle forms of the step machines and for ad hoc processes.
type Body func(p *des.Proc, in []ReadPort, out []WritePort)

func (b Body) spawn(k *des.Kernel, name string, in []ReadPort, out []WritePort) {
	k.Spawn(name, 0, func(p *des.Proc) { b(p, in, out) })
}

// OracleBody returns b as a coroutine body. For the library's step
// machines that is the blocking loop each one replaced, kept here as
// the oracle the step forms are checked against; a Body is its own.
func OracleBody(b Behavior) Body {
	switch b := b.(type) {
	case Body:
		return b
	case *paced:
		if b.consumer {
			return oracleConsumer(b)
		}
		return oracleProducer(b)
	case *stage:
		return oracleStage(b)
	}
	panic(fmt.Sprintf("kpn: no oracle for behavior %T", b))
}

// waitNext delays the process until the pacer's next activation
// instant; a process already past it proceeds at once.
func waitNext(pc *Pacer, p *des.Proc) {
	at := pc.Next()
	if d := at - p.Now(); d > 0 {
		p.Delay(d)
	}
}

func oracleProducer(b *paced) Body {
	model, seed, count, gen := b.model, b.seed, b.count, b.gen
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		pacer := NewPacer(model, seed)
		for i := int64(0); count <= 0 || i < count; i++ {
			waitNext(pacer, p)
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

func oracleConsumer(b *paced) Body {
	model, seed, count, onToken := b.model, b.seed, b.count, b.onToken
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		if len(in) != 1 {
			panic(fmt.Sprintf("kpn: Consumer needs exactly 1 input, got %d", len(in)))
		}
		pacer := NewPacer(model, seed)
		for i := int64(0); count <= 0 || i < count; i++ {
			waitNext(pacer, p)
			tok := in[0].Read(p)
			if onToken != nil {
				onToken(p.Now(), tok)
			}
		}
	}
}

func oracleStage(b *stage) Body {
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		if !arity(len(in), b.ins) || !arity(len(out), b.outs) {
			panic(fmt.Sprintf("kpn: stage %q bound to %d inputs and %d outputs", p.Name(), len(in), len(out)))
		}
		rng := NewRand(b.seed)
		toks := make([]Token, len(in))
		made := make([]Token, len(out))
		for i := int64(1); ; i++ {
			total := 0
			for j := range in {
				toks[j] = in[j].Read(p)
				total += toks[j].Size()
			}
			p.Delay(b.work.Duration(rng, total))
			b.fire(i, toks, made)
			for j := range made {
				made[j].Stamp = p.Now()
			}
			for j := range out {
				out[j].Write(p, made[j])
			}
		}
	}
}

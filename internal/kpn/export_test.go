package kpn

import (
	"fmt"

	"ftpn/internal/des"
)

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
	case *stageLoop:
		switch b.kind {
		case transformKind:
			return oracleTransform(b)
		case memoTransformKind:
			return oracleMemoTransform(b)
		default:
			return oracleMemoStage(b)
		}
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

func oracleTransform(b *stageLoop) Body {
	work, seed, f := b.work, b.seed, b.each
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

func oracleMemoTransform(b *stageLoop) Body {
	work, seed, memo, t, f := b.work, b.seed, b.memo, b.table, b.each
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		if len(in) != 1 || len(out) != 1 {
			panic(fmt.Sprintf("kpn: Transform needs 1 input and 1 output, got %d/%d", len(in), len(out)))
		}
		rng := NewRand(seed)
		for {
			tok := in[0].Read(p)
			p.Delay(work.Duration(rng, tok.Size()))
			out[0].Write(p, memo.token(t, tok.Seq, p.Now(), func() []byte { return f(tok.Seq, tok.Payload) }))
		}
	}
}

func oracleMemoStage(b *stageLoop) Body {
	work, seed, memo, t, stage, f := b.work, b.seed, b.memo, b.table, b.name, b.all
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		if len(in) == 0 || len(out) == 0 {
			panic(fmt.Sprintf("kpn: MemoStage %q needs at least 1 input and 1 output, got %d/%d", stage, len(in), len(out)))
		}
		rng := NewRand(seed)
		toks := make([]Token, len(in))
		for {
			total := 0
			for i := range in {
				toks[i] = in[i].Read(p)
				total += toks[i].Size()
			}
			p.Delay(work.Duration(rng, total))
			seq := toks[0].Seq
			var tok Token
			if f == nil {
				tok = toks[0] // pass-through keeps the payload's memo entry
				tok.Stamp = p.Now()
			} else {
				tok = memo.token(t, seq, p.Now(), func() []byte {
					ins := make([][]byte, len(toks))
					for i := range toks {
						ins[i] = toks[i].Payload
					}
					return f(seq, ins)
				})
			}
			for _, o := range out {
				o.Write(p, tok)
			}
		}
	}
}

package kpn

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"ftpn/internal/des"
)

// PayloadMemo caches the deterministic payload pipeline of an
// application across simulation runs. Every producer generator and
// critical-stage payload function in internal/apps is a pure function of
// the stream index (the only fault mode that touches data, fault.Corrupt,
// flips bytes in a private copy of the gated token), so when an experiment
// executes the same workload hundreds of times — fault-injection
// campaigns, Table 2 sweeps — each stage's output for stream index seq
// is recomputed identically on every run. The memo computes it once and
// hands every later run (and the second replica within a run) the same
// read-only byte slice.
//
// Each entry also holds the payload's FNV-1a digest, computed lazily at
// most once. Tokens built by Token carry a reference to their entry, so
// the golden-stream comparison (Token.Hash at the consumer) hashes each
// cached payload once per memo instead of once per run.
//
// Correctness: cached slices are exactly the bytes the stage would have
// produced, so consumer streams — including the Seq+payload-hash golden
// comparison of the campaign — stay bit-identical. Virtual timing is
// unaffected: execution-time models draw from the input token size and
// the per-process RNG, neither of which the memo changes. Callers must
// treat payloads as immutable (the KPN stages already do — splits slice,
// merges copy).
//
// A nil *PayloadMemo is valid and disables caching.
type PayloadMemo struct {
	m      sync.Map // memoKey -> *memoEntry
	hits   atomic.Int64
	misses atomic.Int64
}

// memoKey identifies one stage output in one application's stream.
type memoKey struct {
	stage string
	seq   int64
}

// memoEntry is one cached stage output and its lazily computed digest.
type memoEntry struct {
	payload []byte
	once    sync.Once
	sum     uint64
}

// digest returns the FNV-1a digest of the entry's payload, hashing it on
// the first call only.
func (e *memoEntry) digest() uint64 {
	e.once.Do(func() { e.sum = hashBytes(e.payload) })
	return e.sum
}

// NewPayloadMemo returns an empty memo.
func NewPayloadMemo() *PayloadMemo { return &PayloadMemo{} }

// entry returns the cached entry for (stage, seq), computing its payload
// via compute on a miss. Concurrent first computations of the same key
// converge: LoadOrStore keeps the first stored entry and every caller
// gets it, so one key has one slice and one digest.
func (m *PayloadMemo) entry(stage string, seq int64, compute func() []byte) *memoEntry {
	key := memoKey{stage, seq}
	if v, ok := m.m.Load(key); ok {
		m.hits.Add(1)
		return v.(*memoEntry)
	}
	m.misses.Add(1)
	v, _ := m.m.LoadOrStore(key, &memoEntry{payload: compute()})
	return v.(*memoEntry)
}

// Token returns a token for stream index seq stamped at stamp, whose
// payload is the cached output of stage for seq (computed via compute on
// a miss). The token carries its memo entry, so its Hash is the cached
// digest. With a nil memo the payload is computed afresh and the token
// carries no entry.
func (m *PayloadMemo) Token(stage string, seq int64, stamp des.Time, compute func() []byte) Token {
	if m == nil {
		return Token{Seq: seq, Stamp: stamp, Payload: compute()}
	}
	e := m.entry(stage, seq, compute)
	return Token{Seq: seq, Stamp: stamp, Payload: e.payload, memo: e}
}

// Lookup returns the cached payload for (stage, seq) without computing
// on a miss: the golden payload a fault-free execution produces, for
// tests and tools that check a stage output against it. Nil-memo safe.
func (m *PayloadMemo) Lookup(stage string, seq int64) ([]byte, bool) {
	if m == nil {
		return nil, false
	}
	v, ok := m.m.Load(memoKey{stage, seq})
	if !ok {
		return nil, false
	}
	return v.(*memoEntry).payload, true
}

// Stats reports cache hits and misses (for tests and benchmarks).
func (m *PayloadMemo) Stats() (hits, misses int64) {
	if m == nil {
		return 0, 0
	}
	return m.hits.Load(), m.misses.Load()
}

// Gen wraps a producer payload generator with the memo, keyed by the
// production index. With a nil memo it returns gen unchanged.
func (m *PayloadMemo) Gen(stage string, gen func(i int64) []byte) func(i int64) []byte {
	if m == nil || gen == nil {
		return gen
	}
	return func(i int64) []byte {
		return m.entry(stage, i, func() []byte { return gen(i) }).payload
	}
}

// MemoStage generalizes MemoTransform to arbitrary port arity: each
// firing reads one token from every input (in the channel declaration
// order the network binds ports in), delays for the work model applied
// to the total input size, and writes one token carrying f's payload to
// every output. The emitted Seq is the first input's Seq, so the stream
// index assigned at the producer survives forks, joins and feedback
// stages — declare forward channels before feedback channels so the
// first input is the forward one. Like MemoTransform the payload must
// be a pure function of (stream index, input payloads) for the memo to
// be sound; a nil f forwards the first input's payload (and its memo
// entry), a nil memo disables caching. Package topo builds every
// synthetic DSL stage on this behavior.
func MemoStage(work WorkModel, seed int64, memo *PayloadMemo, stage string, f func(i int64, ins [][]byte) []byte) Behavior {
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		if len(in) == 0 || len(out) == 0 {
			panic(fmt.Sprintf("kpn: MemoStage %q needs at least 1 input and 1 output, got %d/%d", stage, len(in), len(out)))
		}
		rng := rand.New(rand.NewSource(seed))
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
				tok = memo.Token(stage, seq, p.Now(), func() []byte {
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

// MemoTransform is Transform with the payload function memoized by the
// token's stream index. Unlike Transform, f receives tok.Seq (not the
// local read counter) as its index argument: the stream index is what
// determines the payload — a recovered replica's read counter drifts
// from Seq after an outage, and every stage payload function in
// internal/apps is index-independent anyway. With a nil memo the
// behavior is identical to Transform except for that argument.
func MemoTransform(work WorkModel, seed int64, memo *PayloadMemo, stage string, f func(i int64, payload []byte) []byte) Behavior {
	if f == nil || memo == nil {
		return Transform(work, seed, f)
	}
	return func(p *des.Proc, in []ReadPort, out []WritePort) {
		if len(in) != 1 || len(out) != 1 {
			panic(fmt.Sprintf("kpn: Transform needs 1 input and 1 output, got %d/%d", len(in), len(out)))
		}
		rng := rand.New(rand.NewSource(seed))
		for {
			tok := in[0].Read(p)
			p.Delay(work.Duration(rng, tok.Size()))
			out[0].Write(p, memo.Token(stage, tok.Seq, p.Now(), func() []byte { return f(tok.Seq, tok.Payload) }))
		}
	}
}

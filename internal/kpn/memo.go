package kpn

import (
	"maps"
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
// Storage: each stage name owns one table, looked up once when a
// behavior or generator is built (Gen, MemoTransform, MemoStage), so a
// firing indexes a slice by seq instead of hashing a key. Lookups are
// lock-free; a miss computes its payload outside any lock and stores it
// under the stage's mutex, which also grows the slice. A miss that finds
// an entry stored meanwhile returns that entry, so concurrent first
// computations of one key converge on one slice and one digest.
//
// Digests: each entry also holds the payload's FNV-1a digest, computed
// lazily at most once. Tokens built by Token carry a reference to their
// entry, so the golden-stream comparison (Token.Hash at the consumer)
// hashes each cached payload once per memo instead of once per run.
// Join builds a fresh concatenation of memoized parts every run and
// caches only its digest, keyed by (stage, seq) together with the part
// entries it was hashed from; a later Join reuses the digest only when
// its parts are exactly those entries' own slices.
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
	mu     sync.Mutex                            // serializes adding a stage table
	tables atomic.Pointer[map[string]*memoTable] // copy-on-write: stage -> table

	hits, misses, hashed, joinsReused atomic.Int64
}

// MemoStats counts a PayloadMemo's work since it was created.
type MemoStats struct {
	Hits   int64 // payload lookups served from the memo
	Misses int64 // payload lookups that computed the payload
	// Hashed counts digests hashed from payload bytes: entry digests on
	// their first Token.Hash and join digests on their first Join.
	Hashed int64
	// JoinsReused counts Join calls that reused a cached join digest.
	JoinsReused int64
}

// memoEntry is one cached stage output and its lazily computed digest,
// or (parts != nil) one cached join digest.
type memoEntry struct {
	payload []byte
	once    sync.Once
	sum     uint64
	owner   *PayloadMemo // counts the digest when it is hashed
	parts   []*memoEntry // join digests: the part entries sum covers
}

// digest returns the FNV-1a digest of the entry's payload, hashing it on
// the first call only.
func (e *memoEntry) digest() uint64 {
	e.once.Do(func() {
		e.sum = hashBytes(e.payload)
		e.owner.hashed.Add(1)
	})
	return e.sum
}

// hashedEntry returns an entry for payload whose digest is already sum.
func hashedEntry(payload []byte, sum uint64, parts []*memoEntry) *memoEntry {
	e := &memoEntry{payload: payload, parts: parts}
	e.once.Do(func() { e.sum = sum })
	return e
}

// maxDenseSeq bounds the seqs a stage table indexes by slice; any other
// seq (the non-positive Seqs of preloaded tokens, say) goes to its map.
const maxDenseSeq = 1 << 20

// memoTable holds one stage's entries, indexed by seq.
type memoTable struct {
	dense  atomic.Pointer[[]atomic.Pointer[memoEntry]]
	mu     sync.Mutex           // guards stores, growth and sparse
	sparse map[int64]*memoEntry // seqs outside [0, maxDenseSeq)
}

// load returns the entry stored for seq, or nil.
func (t *memoTable) load(seq int64) *memoEntry {
	if seq >= 0 && seq < maxDenseSeq {
		if d := t.dense.Load(); d != nil && seq < int64(len(*d)) {
			return (*d)[seq].Load()
		}
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sparse[seq]
}

// store stores e for seq unless an entry is there already, and returns
// the entry that stays: the first one stored.
func (t *memoTable) store(seq int64, e *memoEntry) *memoEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq < 0 || seq >= maxDenseSeq {
		if old := t.sparse[seq]; old != nil {
			return old
		}
		if t.sparse == nil {
			t.sparse = map[int64]*memoEntry{}
		}
		t.sparse[seq] = e
		return e
	}
	d := t.dense.Load()
	if d == nil || seq >= int64(len(*d)) {
		n := 64
		if d != nil {
			n = 2 * len(*d)
		}
		for int64(n) <= seq {
			n *= 2
		}
		grown := make([]atomic.Pointer[memoEntry], n)
		if d != nil {
			for i := range *d {
				grown[i].Store((*d)[i].Load())
			}
		}
		t.dense.Store(&grown)
		d = &grown
	}
	slot := &(*d)[seq]
	if old := slot.Load(); old != nil {
		return old
	}
	slot.Store(e)
	return e
}

// NewPayloadMemo returns an empty memo.
func NewPayloadMemo() *PayloadMemo { return &PayloadMemo{} }

// find returns the table of stage, or nil if none was made.
func (m *PayloadMemo) find(stage string) *memoTable {
	if tabs := m.tables.Load(); tabs != nil {
		return (*tabs)[stage]
	}
	return nil
}

// table returns the table of stage, making it on first use; nil for a
// nil memo.
func (m *PayloadMemo) table(stage string) *memoTable {
	if m == nil {
		return nil
	}
	if t := m.find(stage); t != nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.find(stage); t != nil {
		return t
	}
	next := map[string]*memoTable{}
	if old := m.tables.Load(); old != nil {
		next = maps.Clone(*old)
	}
	t := &memoTable{}
	next[stage] = t
	m.tables.Store(&next)
	return t
}

// entry returns t's entry for seq, computing its payload via compute on
// a miss.
func (m *PayloadMemo) entry(t *memoTable, seq int64, compute func() []byte) *memoEntry {
	if e := t.load(seq); e != nil {
		m.hits.Add(1)
		return e
	}
	m.misses.Add(1)
	return t.store(seq, &memoEntry{payload: compute(), owner: m})
}

// Token returns a token for stream index seq stamped at stamp, whose
// payload is the cached output of stage for seq (computed via compute on
// a miss). The token carries its memo entry, so its Hash is the cached
// digest. With a nil memo the payload is computed afresh and the token
// carries no entry.
func (m *PayloadMemo) Token(stage string, seq int64, stamp des.Time, compute func() []byte) Token {
	return m.token(m.table(stage), seq, stamp, compute)
}

// token is Token on a table already looked up; t is nil when m is.
func (m *PayloadMemo) token(t *memoTable, seq int64, stamp des.Time, compute func() []byte) Token {
	if m == nil {
		return Token{Seq: seq, Stamp: stamp, Payload: compute()}
	}
	e := m.entry(t, seq, compute)
	return Token{Seq: seq, Stamp: stamp, Payload: e.payload, memo: e}
}

// Join returns a token for stream index seq stamped at stamp whose
// payload is a fresh concatenation of the parts' payloads, in order. Its
// digest is cached per (stage, seq) with the part entries it was hashed
// from, and a later Join reuses it only when every part is still its own
// entry's slice (the Token.Hash identity rule) and those entries are the
// recorded ones. Otherwise — a nil memo, an unmemoized or corrupted part,
// parts from other stream indices — the token carries no digest and
// hashes its bytes. The payload is never cached: every Join allocates
// its own.
func (m *PayloadMemo) Join(stage string, seq int64, stamp des.Time, parts []Token) Token {
	n := 0
	for _, p := range parts {
		n += len(p.Payload)
	}
	joined := make([]byte, 0, n)
	for _, p := range parts {
		joined = append(joined, p.Payload...)
	}
	tok := Token{Seq: seq, Stamp: stamp, Payload: joined}
	if m == nil || n == 0 {
		return tok
	}
	t := m.table(stage)
	if rec := t.load(seq); rec != nil {
		if rec.joins(parts) {
			m.joinsReused.Add(1)
			tok.memo = hashedEntry(joined, rec.sum, nil)
		}
		return tok
	}
	ents := make([]*memoEntry, len(parts))
	for i, p := range parts {
		if ents[i] = p.ownEntry(); ents[i] == nil || p.Seq != seq {
			return tok
		}
	}
	sum := hashBytes(joined)
	m.hashed.Add(1)
	t.store(seq, hashedEntry(nil, sum, ents))
	tok.memo = hashedEntry(joined, sum, nil)
	return tok
}

// joins reports whether parts are exactly the part entries of join
// digest e, each still its entry's own slice.
func (e *memoEntry) joins(parts []Token) bool {
	if len(parts) != len(e.parts) {
		return false
	}
	for i, p := range parts {
		if p.ownEntry() != e.parts[i] {
			return false
		}
	}
	return true
}

// Lookup returns the cached payload for (stage, seq) without computing
// on a miss: the golden payload a fault-free execution produces, for
// tests and tools that check a stage output against it. Join digests
// hold no payload and are not found. Nil-memo safe.
func (m *PayloadMemo) Lookup(stage string, seq int64) ([]byte, bool) {
	if m == nil {
		return nil, false
	}
	t := m.find(stage)
	if t == nil {
		return nil, false
	}
	e := t.load(seq)
	if e == nil || e.parts != nil {
		return nil, false
	}
	return e.payload, true
}

// Stats returns the memo's counters (zero for a nil memo).
func (m *PayloadMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	return MemoStats{
		Hits:        m.hits.Load(),
		Misses:      m.misses.Load(),
		Hashed:      m.hashed.Load(),
		JoinsReused: m.joinsReused.Load(),
	}
}

// Gen wraps a producer payload generator with the memo, keyed by the
// production index. With a nil memo it returns gen unchanged.
func (m *PayloadMemo) Gen(stage string, gen func(i int64) []byte) func(i int64) []byte {
	if m == nil || gen == nil {
		return gen
	}
	t := m.table(stage)
	return func(i int64) []byte {
		return m.entry(t, i, func() []byte { return gen(i) }).payload
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
	t := memo.table(stage)
	return Stage(work, seed, 0, 0, func(_ int64, in, out []Token) {
		tok := in[0]
		if f != nil {
			tok = memo.token(t, tok.Seq, 0, func() []byte {
				ins := make([][]byte, len(in))
				for i := range in {
					ins[i] = in[i].Payload
				}
				return f(in[0].Seq, ins)
			})
		}
		for j := range out {
			out[j] = tok
		}
	})
}

// MemoTransform is Transform with the payload function memoized by the
// token's stream index. Unlike Transform, f receives tok.Seq (not the
// firing count) as its index argument, with or without a memo: the
// stream index is what determines the payload — a recovered replica's
// firing count drifts from Seq after an outage, and every stage payload
// function in internal/apps is index-independent anyway. A nil memo
// disables caching.
func MemoTransform(work WorkModel, seed int64, memo *PayloadMemo, stage string, f func(i int64, payload []byte) []byte) Behavior {
	if f == nil {
		return Transform(work, seed, nil)
	}
	t := memo.table(stage)
	return Stage(work, seed, 1, 1, func(_ int64, in, out []Token) {
		out[0] = memo.token(t, in[0].Seq, 0, func() []byte { return f(in[0].Seq, in[0].Payload) })
	})
}

package kpn

import (
	"bytes"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"ftpn/internal/des"
)

// TestPayloadMemoLookup: Lookup hits only what the memo cached, never
// computes, and is nil-safe.
func TestPayloadMemoLookup(t *testing.T) {
	m := NewPayloadMemo()
	if _, ok := m.Lookup("s", 1); ok {
		t.Fatal("Lookup hit an empty memo")
	}
	gen := m.Gen("s", func(i int64) []byte { return []byte{byte(i), byte(i + 1)} })
	want := gen(1)
	got, ok := m.Lookup("s", 1)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Lookup = (%v, %v), want (%v, true)", got, ok, want)
	}
	if _, ok := m.Lookup("s", 2); ok {
		t.Fatal("Lookup hit an uncached index")
	}
	if _, ok := m.Lookup("other", 1); ok {
		t.Fatal("Lookup hit a different stage")
	}
	var nilMemo *PayloadMemo
	if _, ok := nilMemo.Lookup("s", 1); ok {
		t.Fatal("nil memo Lookup returned a hit")
	}
}

// fnvSum is the reference FNV-1a digest the memo's cached digests must
// equal.
func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// memoFrame returns a deterministic n-byte payload.
func memoFrame(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestPayloadMemoConcurrentMissConverges: two callers that both miss the
// same key end up with one entry, one slice and one digest.
func TestPayloadMemoConcurrentMissConverges(t *testing.T) {
	m := NewPayloadMemo()
	var inCompute sync.WaitGroup
	inCompute.Add(2)
	compute := func() []byte {
		// Hold both callers inside compute so neither can observe the
		// other's entry through the first Load.
		inCompute.Done()
		inCompute.Wait()
		return memoFrame(64)
	}
	var toks [2]Token
	var done sync.WaitGroup
	for i := range toks {
		done.Add(1)
		go func() {
			defer done.Done()
			toks[i] = m.Token("s", 1, 0, compute)
		}()
	}
	done.Wait()
	if &toks[0].Payload[0] != &toks[1].Payload[0] {
		t.Fatal("concurrent misses kept two backing arrays")
	}
	if toks[0].memo != toks[1].memo {
		t.Fatal("concurrent misses kept two memo entries")
	}
	got, _ := m.Lookup("s", 1)
	if &got[0] != &toks[0].Payload[0] {
		t.Fatal("Lookup returned a different backing array than the callers got")
	}
	if misses := m.Stats().Misses; misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
}

// TestMemoTokenHashMatchesBytes: a memo token's cached digest is the
// FNV-1a of its bytes, on the first (computing) and later calls, and on
// a token built by a later run from the same entry.
func TestMemoTokenHashMatchesBytes(t *testing.T) {
	m := NewPayloadMemo()
	tok := m.Token("s", 3, 10, func() []byte { return memoFrame(1000) })
	if tok.Seq != 3 || tok.Stamp != 10 || tok.memo == nil {
		t.Fatalf("Token = {Seq %d, Stamp %d, memo %v}, want {3, 10, non-nil}", tok.Seq, tok.Stamp, tok.memo)
	}
	want := fnvSum(tok.Payload)
	for i := 0; i < 2; i++ {
		if got := tok.Hash(); got != want {
			t.Fatalf("call %d: Hash = %x, want %x", i, got, want)
		}
	}
	again := m.Token("s", 3, 20, func() []byte { t.Fatal("hit recomputed"); return nil })
	if again.memo != tok.memo || again.Hash() != want {
		t.Fatal("a cache hit did not reuse the entry and its digest")
	}
	var nilMemo *PayloadMemo
	plain := nilMemo.Token("s", 3, 10, func() []byte { return memoFrame(1000) })
	if plain.memo != nil || plain.Hash() != want {
		t.Fatal("nil-memo Token should carry no entry and hash its bytes")
	}
}

// TestMemoTokenHashFallsBackOnForeignPayload: once the payload is no
// longer the entry's own slice, Hash hashes the bytes it has, even
// after the entry's digest was cached.
func TestMemoTokenHashFallsBackOnForeignPayload(t *testing.T) {
	m := NewPayloadMemo()
	tok := m.Token("s", 1, 0, func() []byte { return memoFrame(256) })
	golden := tok.Hash() // cache the digest first

	same := tok
	same.Payload = memoFrame(256)
	same.Payload[17] ^= 0x5A
	short := tok
	short.Payload = tok.Payload[:255]
	empty := tok
	empty.Payload = tok.Payload[:0]
	for name, c := range map[string]Token{"same-length copy": same, "shorter subslice": short, "zero-length": empty} {
		if got, want := c.Hash(), fnvSum(c.Payload); got != want {
			t.Errorf("%s: Hash = %x, want %x (hash of its bytes)", name, got, want)
		}
		if c.Hash() == golden {
			t.Errorf("%s: Hash returned the entry's digest", name)
		}
	}
}

// TestPassThroughStagesKeepMemoEntry: Transform and MemoStage with a nil
// payload function forward the input token's memo entry.
func TestPassThroughStagesKeepMemoEntry(t *testing.T) {
	m := NewPayloadMemo()
	src := m.Token("src", 1, 0, func() []byte { return memoFrame(32) })
	k := des.NewKernel()
	a := NewFIFO(k, "a", 2)
	b := NewFIFO(k, "b", 2)
	c := NewFIFO(k, "c", 2)
	tr := Transform(WorkModel{BaseUs: 3}, 1, nil)
	st := MemoStage(WorkModel{BaseUs: 4}, 2, m, "pass", nil)
	Spawn(k, "T", tr, []ReadPort{a}, []WritePort{b})
	Spawn(k, "S", st, []ReadPort{b}, []WritePort{c})
	var got Token
	k.Spawn("drv", 0, func(p *des.Proc) {
		a.Write(p, src)
		got = c.Read(p)
	})
	k.Run(0)
	k.Shutdown()
	if got.memo != src.memo || got.Stamp != 7 {
		t.Fatalf("got {memo %p, Stamp %d}, want {memo %p, Stamp 7}", got.memo, got.Stamp, src.memo)
	}
	if got.Hash() != fnvSum(got.Payload) {
		t.Fatal("forwarded token hash mismatch")
	}
}

// TestMemoTransformPassesSeq: f's index is the input token's Seq, not
// the firing count, with or without a memo.
func TestMemoTransformPassesSeq(t *testing.T) {
	for _, m := range []*PayloadMemo{nil, NewPayloadMemo()} {
		k := des.NewKernel()
		in := NewFIFO(k, "in", 3)
		in.Preload([]Token{{Seq: 7}, {Seq: 9}, {Seq: 40}})
		out := NewFIFO(k, "out", 3)
		var got []int64
		Spawn(k, "M", MemoTransform(WorkModel{BaseUs: 1}, 1, m, "m", func(i int64, _ []byte) []byte {
			got = append(got, i)
			return []byte{byte(i)}
		}), []ReadPort{in}, []WritePort{out})
		k.Run(0)
		k.Shutdown()
		if !slices.Equal(got, []int64{7, 9, 40}) {
			t.Errorf("memo set %v: f saw indices %v, want the Seqs [7 9 40]", m != nil, got)
		}
	}
}

// TestMemoTokenHashNoAllocs: a cached Hash allocates nothing.
func TestMemoTokenHashNoAllocs(t *testing.T) {
	tok := NewPayloadMemo().Token("s", 1, 0, func() []byte { return memoFrame(4096) })
	tok.Hash()
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += tok.Hash() }); n != 0 {
		t.Fatalf("cached Hash allocates %.1f times per call", n)
	}
	_ = sink
}

// TestMemoTokenHashConcurrent: concurrent first Hash calls on one entry
// all return the right digest (run under -race).
func TestMemoTokenHashConcurrent(t *testing.T) {
	m := NewPayloadMemo()
	tok := m.Token("s", 1, 0, func() []byte { return memoFrame(8192) })
	want := fnvSum(tok.Payload)
	var wg sync.WaitGroup
	errs := make(chan uint64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			copyTok := m.Token("s", 1, 0, func() []byte { return nil })
			for i := 0; i < 50; i++ {
				if h := copyTok.Hash(); h != want {
					errs <- h
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for h := range errs {
		t.Fatalf("concurrent Hash = %x, want %x", h, want)
	}
}

// BenchmarkTokenHash compares hashing a 76.8 KB frame (one 320x240
// decoded MJPEG frame) from its bytes with returning a memo entry's
// cached digest.
func BenchmarkTokenHash(b *testing.B) {
	frame := memoFrame(76_800)
	b.Run("raw", func(b *testing.B) {
		tok := Token{Seq: 1, Payload: frame}
		for i := 0; i < b.N; i++ {
			tok.Hash()
		}
	})
	b.Run("memo", func(b *testing.B) {
		tok := NewPayloadMemo().Token("s", 1, 0, func() []byte { return frame })
		tok.Hash()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tok.Hash()
		}
	})
}

// TestPayloadMemoStats: Stats counts lookups that hit and miss, and
// digests hashed from bytes, and is zero for a nil memo.
func TestPayloadMemoStats(t *testing.T) {
	m := NewPayloadMemo()
	gen := m.Gen("g", func(i int64) []byte { return memoFrame(16 + int(i)) })
	gen(1)
	gen(1)
	gen(2)
	tok := m.Token("g", 1, 0, func() []byte { t.Fatal("hit recomputed"); return nil })
	tok.Hash()
	tok.Hash()
	if got, want := m.Stats(), (MemoStats{Hits: 2, Misses: 2, Hashed: 1}); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	var nilMemo *PayloadMemo
	if got := nilMemo.Stats(); got != (MemoStats{}) {
		t.Fatalf("nil memo Stats = %+v, want zero", got)
	}
}

// TestPayloadMemoSeqRange: entries at negative, zero, sparse, large and
// out-of-slice seqs are stored and found, whatever order the slice grows
// in, and each stage keeps its own table.
func TestPayloadMemoSeqRange(t *testing.T) {
	m := NewPayloadMemo()
	seqs := []int64{5, 0, -3, 1000, 63, 64, 65, maxDenseSeq - 1, maxDenseSeq, 1 << 40, -1 << 40, 7}
	payload := func(seq int64) []byte { return []byte{byte(seq), byte(seq >> 8), byte(seq >> 40), 1} }
	for _, seq := range seqs {
		m.Token("s", seq, 0, func() []byte { return payload(seq) })
	}
	for _, seq := range seqs {
		got, ok := m.Lookup("s", seq)
		if !ok || !bytes.Equal(got, payload(seq)) {
			t.Fatalf("Lookup(s, %d) = (%v, %v), want (%v, true)", seq, got, ok, payload(seq))
		}
		if _, ok := m.Lookup("other", seq); ok {
			t.Fatalf("Lookup(other, %d) hit stage s's entry", seq)
		}
	}
	for _, seq := range []int64{1, 62, 66, 999, 1001, maxDenseSeq + 1, -2} {
		if _, ok := m.Lookup("s", seq); ok {
			t.Fatalf("Lookup(s, %d) hit a seq never stored", seq)
		}
	}
	if st := m.Stats(); st.Misses != int64(len(seqs)) || st.Hits != 0 {
		t.Fatalf("Stats = %+v, want %d misses and no hits", st, len(seqs))
	}
}

// joinParts returns n memo tokens of stage "part<k>" for seq, each with
// a 100-byte payload.
func joinParts(m *PayloadMemo, seq int64, n int) []Token {
	parts := make([]Token, n)
	for k := range parts {
		stage := "part" + string(rune('0'+k))
		parts[k] = m.Token(stage, seq, 0, func() []byte {
			b := memoFrame(100)
			b[0], b[1] = byte(seq), byte(k)
			return b
		})
	}
	return parts
}

// checkJoined fails unless tok is the concatenation of parts, stamped
// and sequenced as asked, and hashes to the digest of its bytes.
func checkJoined(t *testing.T, what string, tok Token, seq int64, parts []Token) {
	t.Helper()
	var want []byte
	for _, p := range parts {
		want = append(want, p.Payload...)
	}
	if tok.Seq != seq || !bytes.Equal(tok.Payload, want) {
		t.Fatalf("%s: Join = {Seq %d, %d bytes}, want {Seq %d, the %d bytes of its parts}", what, tok.Seq, len(tok.Payload), seq, len(want))
	}
	if got, want := tok.Hash(), fnvSum(tok.Payload); got != want {
		t.Fatalf("%s: Hash = %x, want %x (hash of its bytes)", what, got, want)
	}
}

// TestJoinReusesDigest: a second Join of the same part entries builds a
// fresh payload but reuses the digest the first one hashed.
func TestJoinReusesDigest(t *testing.T) {
	m := NewPayloadMemo()
	parts := joinParts(m, 4, 3)
	first := m.Join("join", 4, 10, parts)
	if first.Stamp != 10 {
		t.Fatalf("Stamp = %d, want 10", first.Stamp)
	}
	checkJoined(t, "first join", first, 4, parts)
	second := m.Join("join", 4, 20, joinParts(m, 4, 3))
	checkJoined(t, "second join", second, 4, parts)
	if &first.Payload[0] == &second.Payload[0] {
		t.Fatal("two joins share one payload: the merged frame must be built afresh")
	}
	if st := m.Stats(); st.Hashed != 1 || st.JoinsReused != 1 {
		t.Fatalf("Stats = %+v, want 1 digest hashed and 1 reused", st)
	}
	if _, ok := m.Lookup("join", 4); ok {
		t.Fatal("Lookup found a payload for a join digest")
	}
}

// TestJoinCorruptedStripHashesBytes: a part that is a private corrupted
// copy of its entry's payload (fault.Corrupt's way) keeps its entry
// pointer but not the entry's slice, so the join hashes its bytes —
// both before a digest was cached and after.
func TestJoinCorruptedStripHashesBytes(t *testing.T) {
	m := NewPayloadMemo()
	corrupt := func(parts []Token) []Token {
		out := append([]Token(nil), parts...)
		c := append([]byte(nil), out[1].Payload...)
		c[50] ^= 0xFF
		out[1].Payload = c
		return out
	}
	coldParts := corrupt(joinParts(m, 2, 3))
	checkJoined(t, "corrupted, cold", m.Join("join", 2, 0, coldParts), 2, coldParts)
	golden := m.Join("join", 2, 0, joinParts(m, 2, 3))
	warmParts := corrupt(joinParts(m, 2, 3))
	warm := m.Join("join", 2, 0, warmParts)
	checkJoined(t, "corrupted, warm", warm, 2, warmParts)
	if warm.Hash() == golden.Hash() {
		t.Fatal("a corrupted join hashed to the golden digest")
	}
	if st := m.Stats(); st.JoinsReused != 0 || st.Hashed != 1 {
		t.Fatalf("Stats = %+v, want 1 digest hashed (the golden join) and none reused", st)
	}
}

// TestJoinMismatchedSeqsHashBytes: parts whose entries are not the ones
// a digest was recorded from — strips of other stream indices — never
// get that digest, and a misaligned join records none.
func TestJoinMismatchedSeqsHashBytes(t *testing.T) {
	m := NewPayloadMemo()
	misaligned := joinParts(m, 7, 3)
	misaligned[2] = joinParts(m, 8, 3)[2]
	cold := m.Join("join", 7, 0, misaligned)
	checkJoined(t, "misaligned, cold", cold, 7, misaligned)
	if st := m.Stats(); st.Hashed != 0 {
		t.Fatalf("a misaligned join recorded a digest: Stats = %+v", st)
	}
	golden := m.Join("join", 7, 0, joinParts(m, 7, 3))
	checkJoined(t, "aligned", golden, 7, joinParts(m, 7, 3))
	warm := m.Join("join", 7, 0, misaligned)
	checkJoined(t, "misaligned, warm", warm, 7, misaligned)
	other := m.Join("join", 7, 0, joinParts(m, 9, 3))
	checkJoined(t, "all parts from another seq", other, 7, joinParts(m, 9, 3))
	short := m.Join("join", 7, 0, joinParts(m, 7, 2))
	checkJoined(t, "fewer parts", short, 7, joinParts(m, 7, 2))
	if st := m.Stats(); st.JoinsReused != 0 {
		t.Fatalf("a mismatched join reused a digest: Stats = %+v", st)
	}
}

// TestJoinNilMemoAndUnmemoizedParts: with a nil memo, or parts that
// carry no entry, Join concatenates and the token hashes its bytes.
func TestJoinNilMemoAndUnmemoizedParts(t *testing.T) {
	var nilMemo *PayloadMemo
	plain := []Token{{Seq: 1, Payload: memoFrame(40)}, {Seq: 1, Payload: memoFrame(60)}}
	checkJoined(t, "nil memo", nilMemo.Join("join", 1, 0, plain), 1, plain)
	checkJoined(t, "nil memo, memo parts", nilMemo.Join("join", 1, 0, joinParts(NewPayloadMemo(), 1, 2)), 1, joinParts(NewPayloadMemo(), 1, 2))
	m := NewPayloadMemo()
	for i := 0; i < 2; i++ {
		checkJoined(t, "unmemoized parts", m.Join("join", 1, 0, plain), 1, plain)
	}
	if st := m.Stats(); st != (MemoStats{}) {
		t.Fatalf("unmemoized joins touched the memo: Stats = %+v", st)
	}
	empty := m.Join("join", 1, 0, nil)
	if len(empty.Payload) != 0 || empty.Hash() != fnvSum(nil) {
		t.Fatal("an empty join must hash as an empty payload")
	}
}

// TestJoinConcurrent: joins of the same and different seqs on many
// goroutines all hash to their bytes and converge on one digest per seq
// (run under -race).
func TestJoinConcurrent(t *testing.T) {
	m := NewPayloadMemo()
	const seqs, goroutines = 16, 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4*seqs; i++ {
				seq := int64((g + i) % seqs)
				tok := m.Join("join", seq, 0, joinParts(m, seq, 3))
				if tok.Hash() != fnvSum(tok.Payload) {
					errs <- "join digest differs from the hash of its bytes"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := m.Stats()
	if total := st.Hashed + st.JoinsReused; total != goroutines*4*seqs {
		t.Fatalf("Stats = %+v: hashed + reused = %d, want %d joins", st, total, goroutines*4*seqs)
	}
	if st.Hashed < seqs {
		t.Fatalf("Stats = %+v: fewer digests hashed than seqs joined", st)
	}
}

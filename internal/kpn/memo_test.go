package kpn

import (
	"bytes"
	"hash/fnv"
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
	if _, misses := m.Stats(); misses != 2 {
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
	k.Spawn("T", 0, func(p *des.Proc) { tr(p, []ReadPort{a}, []WritePort{b}) })
	k.Spawn("S", 0, func(p *des.Proc) { st(p, []ReadPort{b}, []WritePort{c}) })
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

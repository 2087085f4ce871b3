package kpn

import (
	"testing"
	"testing/quick"

	"ftpn/internal/des"
)

func TestFIFOBasicOrder(t *testing.T) {
	k := des.NewKernel()
	f := NewFIFO(k, "c", 4)
	var got []int64
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := int64(1); i <= 3; i++ {
			f.Write(p, Token{Seq: i})
		}
	})
	k.Spawn("r", 0, func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, f.Read(p).Seq)
		}
	})
	k.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("read order = %v, want [1 2 3]", got)
	}
	if f.Reads() != 3 || f.Writes() != 3 {
		t.Errorf("counters = %d/%d, want 3/3", f.Reads(), f.Writes())
	}
}

func TestFIFOWriterBlocksWhenFull(t *testing.T) {
	k := des.NewKernel()
	f := NewFIFO(k, "c", 2)
	var writeDone des.Time = -1
	k.Spawn("w", 0, func(p *des.Proc) {
		f.Write(p, Token{Seq: 1})
		f.Write(p, Token{Seq: 2})
		f.Write(p, Token{Seq: 3}) // blocks until the reader frees a slot
		writeDone = p.Now()
	})
	k.Spawn("r", 0, func(p *des.Proc) {
		p.Delay(100)
		f.Read(p)
	})
	k.Run(0)
	if writeDone != 100 {
		t.Errorf("third write completed at %d, want 100 (blocked on full FIFO)", writeDone)
	}
	k.Shutdown()
}

func TestFIFOReaderBlocksWhenEmpty(t *testing.T) {
	k := des.NewKernel()
	f := NewFIFO(k, "c", 2)
	var readDone des.Time = -1
	k.Spawn("r", 0, func(p *des.Proc) {
		f.Read(p)
		readDone = p.Now()
	})
	k.Spawn("w", 0, func(p *des.Proc) {
		p.Delay(55)
		f.Write(p, Token{Seq: 1})
	})
	k.Run(0)
	if readDone != 55 {
		t.Errorf("read completed at %d, want 55 (blocked on empty FIFO)", readDone)
	}
}

func TestFIFOMaxFillTracking(t *testing.T) {
	k := des.NewKernel()
	f := NewFIFO(k, "c", 10)
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := int64(1); i <= 7; i++ {
			f.Write(p, Token{Seq: i})
		}
		for i := 0; i < 7; i++ {
			f.Read(p)
		}
		f.Write(p, Token{Seq: 8})
	})
	k.Run(0)
	if f.MaxFill() != 7 {
		t.Errorf("MaxFill = %d, want 7", f.MaxFill())
	}
	if f.Fill() != 1 {
		t.Errorf("Fill = %d, want 1", f.Fill())
	}
}

func TestFIFOPreload(t *testing.T) {
	k := des.NewKernel()
	f := NewFIFO(k, "c", 3)
	f.Preload([]Token{{Seq: -1}, {Seq: 0}})
	if f.Fill() != 2 {
		t.Fatalf("fill after preload = %d, want 2", f.Fill())
	}
	var seqs []int64
	k.Spawn("r", 0, func(p *des.Proc) {
		for i := 0; i < 2; i++ {
			seqs = append(seqs, f.Read(p).Seq)
		}
	})
	k.Run(0)
	if seqs[0] != -1 || seqs[1] != 0 {
		t.Errorf("preloaded seqs = %v, want [-1 0]", seqs)
	}
}

func TestFIFOPreloadOverflowPanics(t *testing.T) {
	k := des.NewKernel()
	f := NewFIFO(k, "c", 1)
	defer func() {
		if recover() == nil {
			t.Error("overflowing preload should panic")
		}
	}()
	f.Preload(make([]Token, 2))
}

func TestFIFOBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity should panic")
		}
	}()
	NewFIFO(des.NewKernel(), "c", 0)
}

// Property: under any deterministic interleaving, a FIFO preserves order
// and never exceeds its capacity.
func TestFIFOOrderAndBoundProperty(t *testing.T) {
	prop := func(capRaw uint8, nRaw uint8, readerLag uint8) bool {
		capacity := int(capRaw%8) + 1
		n := int64(nRaw%64) + 1
		k := des.NewKernel()
		f := NewFIFO(k, "c", capacity)
		ok := true
		k.Spawn("w", 0, func(p *des.Proc) {
			for i := int64(1); i <= n; i++ {
				f.Write(p, Token{Seq: i})
				p.Delay(1)
			}
		})
		k.Spawn("r", 0, func(p *des.Proc) {
			want := int64(1)
			for want <= n {
				tok := f.Read(p)
				if tok.Seq != want {
					ok = false
					return
				}
				want++
				p.Delay(des.Time(readerLag % 5))
			}
		})
		k.Run(0)
		k.Shutdown()
		return ok && f.MaxFill() <= capacity
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTokenHashAndSize(t *testing.T) {
	a := Token{Payload: []byte("hello")}
	b := Token{Payload: []byte("hello")}
	c := Token{Payload: []byte("world")}
	if a.Hash() != b.Hash() {
		t.Error("equal payloads must hash equal")
	}
	if a.Hash() == c.Hash() {
		t.Error("different payloads should hash differently")
	}
	if a.Size() != 5 {
		t.Errorf("Size = %d, want 5", a.Size())
	}
}

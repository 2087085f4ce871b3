package kpn

import (
	"testing"

	"ftpn/internal/des"
)

func TestDelayedFIFOVisibility(t *testing.T) {
	k := des.NewKernel()
	f := NewDelayedFIFO(k, "D", 4, 5)

	var got []des.Time
	k.Spawn("reader", 0, func(p *des.Proc) {
		for i := 0; i < 2; i++ {
			tok := f.Read(p)
			got = append(got, p.Now())
			if tok.Seq != int64(i+1) {
				t.Errorf("read %d: Seq %d", i, tok.Seq)
			}
		}
	})
	k.Spawn("writer", 0, func(p *des.Proc) {
		p.Delay(10)
		f.Write(p, Token{Seq: 1}) // matures at 15
		f.Write(p, Token{Seq: 2}) // matures at 15 too
	})
	k.Run(0)

	if len(got) != 2 || got[0] != 15 || got[1] != 15 {
		t.Fatalf("read instants %v, want [15 15]", got)
	}
	if f.Reads() != 2 || f.Writes() != 2 {
		t.Fatalf("counters reads=%d writes=%d, want 2/2", f.Reads(), f.Writes())
	}
	if f.Fill() != 0 || f.Queued() != 0 {
		t.Fatalf("fill=%d queued=%d after drain", f.Fill(), f.Queued())
	}
	k.Shutdown()
}

// A reader arriving at the maturity instant through its own timer — not
// through the wakeup callback — must see the token: visibility is by
// value, not by event order. The poller's timer is scheduled before the
// write, so at t=7 it resumes ahead of the maturity callback.
func TestDelayedFIFOVisibilityByValue(t *testing.T) {
	k := des.NewKernel()
	f := NewDelayedFIFO(k, "D", 4, 7)
	blocks := 0
	k.Trace(func(e des.TraceEvent) {
		if e.Kind == "block" && e.Proc == "poller" {
			blocks++
		}
	})

	sawAt := des.Time(-1)
	k.Spawn("poller", 0, func(p *des.Proc) {
		p.Delay(7) // arrives at t=7 before the maturity callback runs
		if f.Fill() != 1 {
			t.Errorf("fill at t=7 is %d, want 1 (value visibility)", f.Fill())
		}
		f.Read(p)
		sawAt = p.Now()
	})
	k.Spawn("writer", 0, func(p *des.Proc) {
		f.Write(p, Token{Seq: 1}) // matures at 7
	})
	k.Run(0)
	if sawAt != 7 {
		t.Fatalf("read completed at %d, want 7", sawAt)
	}
	if blocks != 0 {
		t.Fatalf("poller blocked %d time(s) on a token visible by value", blocks)
	}
	k.Shutdown()
}

func TestDelayedFIFOPreload(t *testing.T) {
	k := des.NewKernel()
	f := NewDelayedFIFO(k, "D", 4, 3)
	f.Preload([]Token{{Seq: -1}, {Seq: 0}})
	if f.Fill() != 2 {
		t.Fatalf("preloaded fill %d, want 2 (visible at time 0)", f.Fill())
	}
	var seqs []int64
	k.Spawn("reader", 0, func(p *des.Proc) {
		seqs = append(seqs, f.Read(p).Seq, f.Read(p).Seq)
	})
	k.Run(0)
	if len(seqs) != 2 || seqs[0] != -1 || seqs[1] != 0 {
		t.Fatalf("read %v, want [-1 0]", seqs)
	}
	k.Shutdown()
}

func TestDelayedFIFOConstructorValidation(t *testing.T) {
	k := des.NewKernel()
	for _, tc := range []struct{ cap, delay int }{{0, 5}, {4, 0}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDelayedFIFO(cap=%d, delay=%d) did not panic", tc.cap, tc.delay)
				}
			}()
			NewDelayedFIFO(k, "bad", tc.cap, des.Time(tc.delay))
		}()
	}
}

func TestDelayedFIFOMaxFill(t *testing.T) {
	k := des.NewKernel()
	f := NewDelayedFIFO(k, "D", 8, 2)

	k.Spawn("writer", 0, func(p *des.Proc) {
		f.Write(p, Token{Seq: 1})
		f.Write(p, Token{Seq: 2}) // both mature at 2
		p.Delay(10)
		f.Write(p, Token{Seq: 3}) // matures at 12
	})
	k.Spawn("reader", 0, func(p *des.Proc) {
		p.Delay(5)
		f.Read(p)
		f.Read(p)
		f.Read(p)
	})
	k.Run(0)

	if f.MaxFill() != 2 {
		t.Fatalf("MaxFill %d, want 2", f.MaxFill())
	}
	if f.Writes() != 3 || f.Reads() != 3 {
		t.Fatalf("%d writes / %d reads, want 3/3", f.Writes(), f.Reads())
	}
	k.Shutdown()
}

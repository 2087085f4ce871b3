package ft

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
)

func TestSelectorFirstOfPairQueuedLateDropped(t *testing.T) {
	k := des.NewKernel()
	s := NewSelector(k, "S", [2]int{4, 4}, [2]int{0, 0}, 0, nil, nil)
	w1, w2, r := s.WriterPort(1), s.WriterPort(2), s.ReaderPort()
	var got []int64
	k.Spawn("d", 0, func(p *des.Proc) {
		w1.Write(p, kpn.Token{Seq: 1, Payload: []byte{1}})
		w2.Write(p, kpn.Token{Seq: 1, Payload: []byte{1}}) // late duplicate: dropped
		w2.Write(p, kpn.Token{Seq: 2, Payload: []byte{2}}) // first of pair 2
		w1.Write(p, kpn.Token{Seq: 2, Payload: []byte{2}}) // late: dropped
		got = append(got, r.Read(p).Seq, r.Read(p).Seq)
	})
	k.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("consumer saw %v, want [1 2]", got)
	}
	if s.Drops(1) != 1 || s.Drops(2) != 1 {
		t.Errorf("drops = %d/%d, want 1/1", s.Drops(1), s.Drops(2))
	}
	if s.Fill() != 0 {
		t.Errorf("fill = %d, want 0", s.Fill())
	}
}

func TestSelectorTieGoesToCurrentWriter(t *testing.T) {
	// With equal write counts, the next writer is first of a new pair.
	k := des.NewKernel()
	s := NewSelector(k, "S", [2]int{4, 4}, [2]int{0, 0}, 0, nil, nil)
	k.Spawn("d", 0, func(p *des.Proc) {
		s.WriterPort(2).Write(p, kpn.Token{Seq: 1})
	})
	k.Run(0)
	if s.Fill() != 1 {
		t.Errorf("fill = %d, want 1 (tie enqueues)", s.Fill())
	}
}

func TestSelectorIsolationLemma1(t *testing.T) {
	// Lemma 1: operations on interface 2 never change space_1. Fill the
	// FIFO from interface 2 far ahead; interface 1's space is untouched.
	k := des.NewKernel()
	s := NewSelector(k, "S", [2]int{8, 8}, [2]int{0, 0}, 0, nil, nil)
	k.Spawn("d", 0, func(p *des.Proc) {
		before := s.Space(1)
		for i := int64(1); i <= 5; i++ {
			s.WriterPort(2).Write(p, kpn.Token{Seq: i})
		}
		if s.Space(1) != before {
			t.Errorf("space_1 changed from %d to %d by interface-2 writes", before, s.Space(1))
		}
		if s.Space(2) != 3 {
			t.Errorf("space_2 = %d, want 3", s.Space(2))
		}
		// A read increments both.
		s.ReaderPort().Read(p)
		if s.Space(1) != before+1 || s.Space(2) != 4 {
			t.Errorf("after read: spaces = %d/%d", s.Space(1), s.Space(2))
		}
	})
	k.Run(0)
}

func TestSelectorWriterBlocksOnOwnSpaceOnly(t *testing.T) {
	// Interface 1 exhausts its own space and blocks even though the
	// other interface still has space (back-pressure is per-replica).
	k := des.NewKernel()
	s := NewSelector(k, "S", [2]int{2, 8}, [2]int{0, 0}, 0, nil, nil)
	var thirdWriteAt des.Time = -1
	k.Spawn("w1", 0, func(p *des.Proc) {
		s.WriterPort(1).Write(p, kpn.Token{Seq: 1})
		s.WriterPort(1).Write(p, kpn.Token{Seq: 2})
		s.WriterPort(1).Write(p, kpn.Token{Seq: 3}) // blocks: space_1 = 0
		thirdWriteAt = p.Now()
	})
	k.Spawn("r", 0, func(p *des.Proc) {
		p.Delay(100)
		s.ReaderPort().Read(p)
	})
	k.Run(0)
	k.Shutdown()
	if thirdWriteAt != 100 {
		t.Errorf("third write completed at %d, want 100 (blocked on space_1)", thirdWriteAt)
	}
}

func TestSelectorInitialTokens(t *testing.T) {
	// inits (2,3): fill starts at 3, space_k = cap_k - init_k.
	k := des.NewKernel()
	s := NewSelector(k, "S", [2]int{4, 6}, [2]int{2, 3}, 0, nil, nil)
	if s.Fill() != 3 {
		t.Fatalf("initial fill = %d, want 3", s.Fill())
	}
	if s.Space(1) != 2 || s.Space(2) != 3 {
		t.Fatalf("initial spaces = %d/%d, want 2/3", s.Space(1), s.Space(2))
	}
	// Preloaded tokens have non-positive Seq.
	var seqs []int64
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			seqs = append(seqs, s.ReaderPort().Read(p).Seq)
		}
	})
	k.Run(0)
	for _, q := range seqs {
		if q > 0 {
			t.Errorf("preloaded token has positive seq %d", q)
		}
	}
}

func TestSelectorPreloadPayloads(t *testing.T) {
	k := des.NewKernel()
	s := NewSelector(k, "S", [2]int{4, 4}, [2]int{2, 2}, 0, func(i int) kpn.Token {
		return kpn.Token{Seq: int64(i) - 1, Payload: []byte{byte(i)}}
	}, nil)
	var first kpn.Token
	k.Spawn("d", 0, func(p *des.Proc) { first = s.ReaderPort().Read(p) })
	k.Run(0)
	if len(first.Payload) != 1 || first.Payload[0] != 0 {
		t.Errorf("preload payload = %v", first.Payload)
	}
}

func TestSelectorDivergenceDetection(t *testing.T) {
	// D = 3: interface 1 writing 3 tokens ahead flags replica 2.
	k := des.NewKernel()
	var faults []Fault
	s := NewSelector(k, "S", [2]int{8, 8}, [2]int{0, 0}, 3, nil, func(f Fault) { faults = append(faults, f) })
	k.Spawn("w1", 0, func(p *des.Proc) {
		for i := int64(1); i <= 3; i++ {
			p.Delay(10)
			s.WriterPort(1).Write(p, kpn.Token{Seq: i})
		}
	})
	k.Run(0)
	if len(faults) != 1 {
		t.Fatalf("faults = %v, want exactly one", faults)
	}
	f := faults[0]
	if f.Replica != 2 || f.Reason != ReasonDivergence || f.At != 30 {
		t.Errorf("fault = %+v, want replica 2 divergence at t=30", f)
	}
	if ok, at, reason := s.Faulty(2); !ok || at != 30 || reason != ReasonDivergence {
		t.Errorf("Faulty(2) = %v %d %s", ok, at, reason)
	}
	if ok, _, _ := s.Faulty(1); ok {
		t.Error("replica 1 must stay healthy")
	}
}

func TestSelectorDivergenceBelowThresholdSilent(t *testing.T) {
	k := des.NewKernel()
	var faults []Fault
	s := NewSelector(k, "S", [2]int{8, 8}, [2]int{0, 0}, 3, nil, func(f Fault) { faults = append(faults, f) })
	k.Spawn("d", 0, func(p *des.Proc) {
		s.WriterPort(1).Write(p, kpn.Token{Seq: 1})
		s.WriterPort(1).Write(p, kpn.Token{Seq: 2}) // lead = 2 < D
		s.WriterPort(2).Write(p, kpn.Token{Seq: 1})
		s.WriterPort(2).Write(p, kpn.Token{Seq: 2})
	})
	k.Run(0)
	if len(faults) != 0 {
		t.Errorf("unexpected faults: %v", faults)
	}
}

func TestSelectorConsumerStallDetection(t *testing.T) {
	// Replica 2 never writes; replica 1 keeps the consumer fed. Once
	// consumer reads push space_2 past |S_2|, replica 2 is flagged.
	k := des.NewKernel()
	var faults []Fault
	s := NewSelector(k, "S", [2]int{4, 4}, [2]int{0, 0}, 0, nil, func(f Fault) { faults = append(faults, f) })
	k.Spawn("w1", 0, func(p *des.Proc) {
		for i := int64(1); i <= 6; i++ {
			s.WriterPort(1).Write(p, kpn.Token{Seq: i})
			p.Delay(10)
		}
	})
	k.Spawn("r", 0, func(p *des.Proc) {
		for i := 0; i < 6; i++ {
			p.Delay(10)
			s.ReaderPort().Read(p)
		}
	})
	k.Run(0)
	k.Shutdown()
	if len(faults) == 0 {
		t.Fatal("consumer-stall fault not detected")
	}
	if faults[0].Replica != 2 || faults[0].Reason != ReasonConsumerStall {
		t.Errorf("fault = %+v, want replica 2 consumer-stall", faults[0])
	}
	// With no initial tokens and no writes from interface 2, the very
	// first read pushes space_2 past |S_2|: detected at the first read.
	if faults[0].At != 10 {
		t.Errorf("detected at %d, want 10", faults[0].At)
	}
}

func TestSelectorMaxFillTracking(t *testing.T) {
	k := des.NewKernel()
	s := NewSelector(k, "S", [2]int{6, 6}, [2]int{0, 0}, 0, nil, nil)
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := int64(1); i <= 4; i++ {
			s.WriterPort(1).Write(p, kpn.Token{Seq: i})
		}
		s.ReaderPort().Read(p)
	})
	k.Run(0)
	if s.MaxFill() != 4 {
		t.Errorf("MaxFill = %d, want 4", s.MaxFill())
	}
	if s.Reads() != 1 || s.Writes(1) != 4 || s.Writes(2) != 0 {
		t.Errorf("counters reads=%d w1=%d w2=%d", s.Reads(), s.Writes(1), s.Writes(2))
	}
}

func TestSelectorValidation(t *testing.T) {
	k := des.NewKernel()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero cap", func() { NewSelector(k, "S", [2]int{0, 4}, [2]int{0, 0}, 0, nil, nil) })
	mustPanic("init over cap", func() { NewSelector(k, "S", [2]int{4, 4}, [2]int{5, 0}, 0, nil, nil) })
	mustPanic("negative init", func() { NewSelector(k, "S", [2]int{4, 4}, [2]int{-1, 0}, 0, nil, nil) })
	mustPanic("negative D", func() { NewSelector(k, "S", [2]int{4, 4}, [2]int{0, 0}, -1, nil, nil) })
	s := NewSelector(k, "S", [2]int{4, 4}, [2]int{0, 0}, 0, nil, nil)
	mustPanic("bad writer", func() { s.WriterPort(3) })
	mustPanic("bad faulty", func() { s.Faulty(0) })
}

func TestSelectorPortNames(t *testing.T) {
	k := des.NewKernel()
	s := NewSelector(k, "sel", [2]int{2, 2}, [2]int{0, 0}, 0, nil, nil)
	if s.WriterPort(1).PortName() != "sel.w1" || s.WriterPort(2).PortName() != "sel.w2" ||
		s.ReaderPort().PortName() != "sel.r" || s.Name() != "sel" {
		t.Error("port names wrong")
	}
}

// TestSelectorFIFOStaysBounded: a FIFO that never drains (preloaded
// tokens keep it non-empty) reuses its consumed head slots instead of
// growing with every token ever queued — the wall-clock runtime streams
// through the same core for as long as a demo runs.
func TestSelectorFIFOStaysBounded(t *testing.T) {
	s := NewSelectorState("S", []int{4, 4}, []int{3, 3}, 0, nil,
		func() int64 { return 0 }, nil, func(WaitOn, int) {})
	for seq := int64(1); seq <= 10000; seq++ {
		s.TryWrite(1, kpn.Token{Seq: seq})
		s.TryWrite(2, kpn.Token{Seq: seq})
		if _, w := s.TryRead(); w != Proceed {
			t.Fatalf("read %d found the FIFO empty", seq)
		}
	}
	if s.Fill() != 3 {
		t.Fatalf("fill = %d, want the 3 preloaded tokens' worth", s.Fill())
	}
	if c := cap(s.fifo); c > 16 {
		t.Errorf("FIFO capacity grew to %d slots for a fill of 4 at most", c)
	}
}

package ft

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
)

func TestNReplicatorFansOutToAll(t *testing.T) {
	k := des.NewKernel()
	r := NewNReplicator(k, "R", []int{4, 4, 4}, nil)
	if r.Replicas() != 3 {
		t.Fatalf("Replicas = %d", r.Replicas())
	}
	var streams [3][]int64
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := int64(1); i <= 4; i++ {
			r.WriterPort().Write(p, kpn.Token{Seq: i})
		}
		for rep := 1; rep <= 3; rep++ {
			for i := 0; i < 4; i++ {
				streams[rep-1] = append(streams[rep-1], r.ReaderPort(rep).Read(p).Seq)
			}
		}
	})
	k.Run(0)
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 4; i++ {
			if streams[rep][i] != int64(i+1) {
				t.Fatalf("replica %d stream %v", rep+1, streams[rep])
			}
		}
	}
}

func TestNReplicatorToleratesNMinus1Faults(t *testing.T) {
	// 3 replicas, 2 stop consuming: both detected, producer never
	// blocks, the survivor receives everything.
	k := des.NewKernel()
	var faults []Fault
	r := NewNReplicator(k, "R", []int{2, 2, 8}, func(f Fault) { faults = append(faults, f) })
	var writeTimes []des.Time
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := int64(1); i <= 8; i++ {
			r.WriterPort().Write(p, kpn.Token{Seq: i})
			writeTimes = append(writeTimes, p.Now())
			p.Delay(10)
		}
	})
	k.Spawn("r3", 0, func(p *des.Proc) {
		for i := 0; i < 8; i++ {
			r.ReaderPort(3).Read(p)
			p.Delay(10)
		}
	})
	k.Run(0)
	k.Shutdown()
	if r.NumFaulty() != 2 {
		t.Fatalf("faulty = %d, want 2: %v", r.NumFaulty(), faults)
	}
	ok1, _, _ := r.Faulty(1)
	ok2, _, _ := r.Faulty(2)
	ok3, _, _ := r.Faulty(3)
	if !ok1 || !ok2 || ok3 {
		t.Errorf("faulty flags = %v %v %v, want true true false", ok1, ok2, ok3)
	}
	for i, at := range writeTimes {
		if at != des.Time(i)*10 {
			t.Fatalf("write %d blocked (at %d)", i, at)
		}
	}
}

func TestNReplicatorDivergence(t *testing.T) {
	k := des.NewKernel()
	r := NewNReplicator(k, "R", []int{8, 8, 8}, nil)
	r.DReads = 2
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := int64(1); i <= 2; i++ {
			r.WriterPort().Write(p, kpn.Token{Seq: i})
		}
		r.ReaderPort(1).Read(p)
		r.ReaderPort(2).Read(p)
		r.ReaderPort(1).Read(p) // replica 1 now 2 ahead of replica 3
	})
	k.Run(0)
	ok3, _, reason := r.Faulty(3)
	if !ok3 || reason != ReasonDivergence {
		t.Errorf("replica 3 should be flagged for divergence, got %v %s", ok3, reason)
	}
	if ok2, _, _ := r.Faulty(2); ok2 {
		t.Error("replica 2 within threshold must stay healthy")
	}
}

func TestNReplicatorAllFaultyLosesTokens(t *testing.T) {
	k := des.NewKernel()
	r := NewNReplicator(k, "R", []int{1, 1}, nil)
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := int64(1); i <= 3; i++ {
			r.WriterPort().Write(p, kpn.Token{Seq: i})
		}
	})
	k.Run(0)
	if r.Lost() != 2 || r.Writes() != 3 {
		t.Errorf("lost=%d writes=%d, want 2/3", r.Lost(), r.Writes())
	}
}

func TestNSelectorFirstOfSetWins(t *testing.T) {
	k := des.NewKernel()
	s := NewNSelector(k, "S", []int{8, 8, 8}, []int{0, 0, 0}, 0, nil, nil)
	if s.Replicas() != 3 {
		t.Fatalf("Replicas = %d", s.Replicas())
	}
	var got []int64
	k.Spawn("d", 0, func(p *des.Proc) {
		// Set 1 arrives 2, 1, 3; set 2 arrives 3, 2, 1.
		s.WriterPort(2).Write(p, kpn.Token{Seq: 1, Payload: []byte{1}})
		s.WriterPort(1).Write(p, kpn.Token{Seq: 1, Payload: []byte{1}})
		s.WriterPort(3).Write(p, kpn.Token{Seq: 1, Payload: []byte{1}})
		s.WriterPort(3).Write(p, kpn.Token{Seq: 2, Payload: []byte{2}})
		s.WriterPort(2).Write(p, kpn.Token{Seq: 2, Payload: []byte{2}})
		s.WriterPort(1).Write(p, kpn.Token{Seq: 2, Payload: []byte{2}})
		got = append(got, s.ReaderPort().Read(p).Seq, s.ReaderPort().Read(p).Seq)
	})
	k.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("consumer saw %v, want [1 2]", got)
	}
	if s.Fill() != 0 {
		t.Errorf("fill = %d, want 0 (duplicates dropped)", s.Fill())
	}
	if s.Drops(1)+s.Drops(2)+s.Drops(3) != 4 {
		t.Errorf("total drops = %d, want 4", s.Drops(1)+s.Drops(2)+s.Drops(3))
	}
}

func TestNSelectorToleratesNMinus1Faults(t *testing.T) {
	// 3 writers; writers 1 and 3 stop; writer 2 keeps the consumer fed.
	k := des.NewKernel()
	s := NewNSelector(k, "S", []int{4, 4, 4}, []int{1, 1, 1}, 0, nil, nil)
	var arrivals []des.Time
	k.Spawn("w2", 0, func(p *des.Proc) {
		for i := int64(1); i <= 10; i++ {
			s.WriterPort(2).Write(p, kpn.Token{Seq: i})
			p.Delay(10)
		}
	})
	k.Spawn("r", 0, func(p *des.Proc) {
		for i := 0; i < 10; i++ {
			p.Delay(10)
			s.ReaderPort().Read(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	k.Run(0)
	k.Shutdown()
	if len(arrivals) != 10 {
		t.Fatalf("consumer got %d tokens, want 10", len(arrivals))
	}
	ok1, _, r1 := s.Faulty(1)
	ok3, _, r3 := s.Faulty(3)
	if !ok1 || !ok3 || r1 != ReasonConsumerStall || r3 != ReasonConsumerStall {
		t.Errorf("silent writers should be convicted of consumer-stall: %v/%s %v/%s", ok1, r1, ok3, r3)
	}
	if ok2, _, _ := s.Faulty(2); ok2 {
		t.Error("the healthy writer must not be convicted")
	}
}

func TestNSelectorDivergence(t *testing.T) {
	k := des.NewKernel()
	s := NewNSelector(k, "S", []int{16, 16, 16}, []int{0, 0, 0}, 3, nil, nil)
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := int64(1); i <= 3; i++ {
			s.WriterPort(1).Write(p, kpn.Token{Seq: i})
			s.WriterPort(2).Write(p, kpn.Token{Seq: i})
		}
	})
	k.Run(0)
	ok3, _, reason := s.Faulty(3)
	if !ok3 || reason != ReasonDivergence {
		t.Errorf("replica 3 should be flagged for divergence: %v %s", ok3, reason)
	}
	if s.NumFaulty() != 1 {
		t.Errorf("NumFaulty = %d, want 1", s.NumFaulty())
	}
}

func TestNSelectorInitialTokens(t *testing.T) {
	k := des.NewKernel()
	s := NewNSelector(k, "S", []int{4, 6, 8}, []int{2, 3, 4}, 0, func(i int) kpn.Token {
		return kpn.Token{Seq: int64(-i), Payload: []byte{byte(i)}}
	}, nil)
	if s.Fill() != 4 {
		t.Fatalf("initial fill = %d, want 4 (max of inits)", s.Fill())
	}
	if s.Space(1) != 2 || s.Space(2) != 3 || s.Space(3) != 4 {
		t.Errorf("spaces = %d %d %d", s.Space(1), s.Space(2), s.Space(3))
	}
}

func TestNSelectorWriterBlocksOnOwnSpace(t *testing.T) {
	k := des.NewKernel()
	s := NewNSelector(k, "S", []int{1, 8}, []int{0, 0}, 0, nil, nil)
	var secondAt des.Time = -1
	k.Spawn("w1", 0, func(p *des.Proc) {
		s.WriterPort(1).Write(p, kpn.Token{Seq: 1})
		s.WriterPort(1).Write(p, kpn.Token{Seq: 2})
		secondAt = p.Now()
	})
	k.Spawn("r", 0, func(p *des.Proc) {
		p.Delay(70)
		s.ReaderPort().Read(p)
	})
	k.Run(0)
	k.Shutdown()
	if secondAt != 70 {
		t.Errorf("second write at %d, want 70", secondAt)
	}
}

func TestNChannelValidation(t *testing.T) {
	k := des.NewKernel()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("rep too few", func() { NewNReplicator(k, "R", []int{4}, nil) })
	mustPanic("rep zero cap", func() { NewNReplicator(k, "R", []int{4, 0}, nil) })
	mustPanic("sel mismatched", func() { NewNSelector(k, "S", []int{4, 4}, []int{0}, 0, nil, nil) })
	mustPanic("sel zero cap", func() { NewNSelector(k, "S", []int{4, 0}, []int{0, 0}, 0, nil, nil) })
	mustPanic("sel bad init", func() { NewNSelector(k, "S", []int{4, 4}, []int{5, 0}, 0, nil, nil) })
	mustPanic("sel bad D", func() { NewNSelector(k, "S", []int{4, 4}, []int{0, 0}, -1, nil, nil) })
	r := NewNReplicator(k, "R", []int{4, 4}, nil)
	mustPanic("rep bad port", func() { r.ReaderPort(3) })
	s := NewNSelector(k, "S", []int{4, 4}, []int{0, 0}, 0, nil, nil)
	mustPanic("sel bad port", func() { s.WriterPort(0) })
	mustPanic("bad faulty idx", func() { s.Faulty(5) })
	if r.ReaderPort(2).PortName() != "R.r2" || r.WriterPort().PortName() != "R.w" ||
		s.WriterPort(2).PortName() != "S.w2" || s.ReaderPort().PortName() != "S.r" ||
		r.Name() != "R" || s.Name() != "S" {
		t.Error("port names broken")
	}
}

// TestNEquivalentToTwoReplicaChannels: with m=2 the generalized channels
// must behave exactly like the specialized ones.
func TestNEquivalentToTwoReplicaChannels(t *testing.T) {
	k := des.NewKernel()
	sel2 := NewSelector(k, "S2", [2]int{4, 6}, [2]int{1, 2}, 3, nil, nil)
	selN := NewNSelector(k, "SN", []int{4, 6}, []int{1, 2}, 3, nil, nil)
	k.Spawn("d", 0, func(p *des.Proc) {
		for i := int64(1); i <= 3; i++ {
			sel2.WriterPort(1).Write(p, kpn.Token{Seq: i})
			selN.WriterPort(1).Write(p, kpn.Token{Seq: i})
			if i%2 == 0 {
				sel2.WriterPort(2).Write(p, kpn.Token{Seq: i})
				selN.WriterPort(2).Write(p, kpn.Token{Seq: i})
			}
			a := sel2.ReaderPort().Read(p)
			b := selN.ReaderPort().Read(p)
			if a.Seq != b.Seq {
				t.Errorf("token %d: selector %d vs n-selector %d", i, a.Seq, b.Seq)
			}
		}
	})
	k.Run(0)
	k.Shutdown()
	for r := 1; r <= 2; r++ {
		if sel2.Writes(r) != selN.Writes(r) || sel2.Drops(r) != selN.Drops(r) {
			t.Errorf("replica %d counters differ: writes %d/%d drops %d/%d",
				r, sel2.Writes(r), selN.Writes(r), sel2.Drops(r), selN.Drops(r))
		}
		f2, _, _ := sel2.Faulty(r)
		fN, _, _ := selN.Faulty(r)
		if f2 != fN {
			t.Errorf("replica %d fault state differs", r)
		}
	}
}

// TestNSelectorMKPolicyThirdReplica: an (m,k) policy on a 3-way selector
// keeps a window for replica 3 too. mk(2,16) forgives its first two
// divergence violations and convicts on the third, with Kind set.
func TestNSelectorMKPolicyThirdReplica(t *testing.T) {
	k := des.NewKernel()
	var faults []Fault
	s := NewNSelector(k, "S", []int{16, 16, 16}, []int{0, 0, 0}, 3, nil, func(f Fault) { faults = append(faults, f) })
	mk, err := NewMKPolicy(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPolicy(mk)
	fr := obs.NewFlightRecorder(0)
	s.RecordFlight(fr.Stream(0), 1)
	k.Spawn("d", 0, func(p *des.Proc) {
		// Replica 3 is silent: from pair 3 on, every write by replica 1
		// or 2 leads it by at least D = 3.
		for seq := int64(1); seq <= 4; seq++ {
			s.WriterPort(1).Write(p, kpn.Token{Seq: seq})
			s.WriterPort(2).Write(p, kpn.Token{Seq: seq})
		}
	})
	k.Run(0)
	k.Shutdown()
	forgiven := 0
	for _, e := range fr.Events() {
		if e.Kind == ProbeForgiven.String() && e.Replica == 3 {
			forgiven++
		}
	}
	if forgiven != 2 {
		t.Errorf("forgiven violations of replica 3 = %d, want 2", forgiven)
	}
	if len(faults) != 1 {
		t.Fatalf("faults = %v, want one conviction of replica 3", faults)
	}
	if f := faults[0]; f.Replica != 3 || f.Reason != ReasonDivergence || f.Kind != KindTiming {
		t.Errorf("fault = %+v, want replica 3 divergence of kind %q", f, KindTiming)
	}
	if v, k := mk.Window(2, ReasonDivergence); v != 3 || k != 16 {
		t.Errorf("replica 3's divergence window = %d/%d, want 3/16", v, k)
	}
	for r := 1; r <= 2; r++ {
		if ok, _, _ := s.Faulty(r); ok {
			t.Errorf("healthy replica %d convicted", r)
		}
	}
}

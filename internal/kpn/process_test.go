package kpn

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/rtc"
)

func TestPacerStrictlyPeriodic(t *testing.T) {
	pc := NewPacer(rtc.PJD{Period: 10}, 1)
	for i := int64(0); i < 5; i++ {
		if at := pc.Next(); at != i*10 {
			t.Errorf("activation %d at %d, want %d", i, at, i*10)
		}
	}
}

func TestPacerRespectsEnvelope(t *testing.T) {
	m := rtc.PJD{Period: 100, Jitter: 40, MinDist: 60}
	pc := NewPacer(m, 42)
	var times []des.Time
	for i := 0; i < 200; i++ {
		times = append(times, pc.Next())
	}
	u, l := m.Upper(), m.Lower()
	for a := 0; a < len(times); a++ {
		if a > 0 && times[a] < times[a-1] {
			t.Fatal("activations must be non-decreasing")
		}
		if a > 0 && times[a]-times[a-1] < m.MinDist {
			t.Fatalf("min distance violated: %d after %d", times[a], times[a-1])
		}
		for b := a; b < len(times); b++ {
			delta := times[b] - times[a] + 1
			if cnt := rtc.Count(b - a + 1); cnt > u.Eval(delta) {
				t.Fatalf("upper envelope violated: %d events in window %d", cnt, delta)
			}
		}
	}
	// Lower envelope: count events in sampled windows inside the span.
	span := times[len(times)-1]
	for _, start := range []des.Time{0, 123, 1777} {
		for _, delta := range []des.Time{150, 500, 2000} {
			if start+delta > span {
				continue
			}
			var cnt rtc.Count
			for _, at := range times {
				if at >= start && at < start+delta {
					cnt++
				}
			}
			if cnt < l.Eval(delta) {
				t.Fatalf("lower envelope violated: %d events in [%d,%d)", cnt, start, start+delta)
			}
		}
	}
}

func TestPacerDeterministic(t *testing.T) {
	m := rtc.PJD{Period: 10, Jitter: 5}
	a, b := NewPacer(m, 7), NewPacer(m, 7)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give the same activation sequence")
		}
	}
	c := NewPacer(m, 8)
	same := true
	for i := 0; i < 50; i++ {
		if NewPacer(m, 7).Next() != c.Next() {
			same = false
			break
		}
	}
	_ = same // different seeds may coincide on a prefix; no assertion
}

func TestPacerInvalidModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid model should panic")
		}
	}()
	NewPacer(rtc.PJD{Period: 0}, 1)
}

func TestProducerConsumerPipeline(t *testing.T) {
	k := des.NewKernel()
	f := NewFIFO(k, "c", 4)
	var arrivals []des.Time
	var seqs []int64

	prod := Producer(rtc.PJD{Period: 100}, 1, 10, func(i int64) []byte { return []byte{byte(i)} })
	cons := Consumer(rtc.PJD{Period: 100}, 2, 10, func(now des.Time, tok Token) {
		arrivals = append(arrivals, now)
		seqs = append(seqs, tok.Seq)
	})
	Spawn(k, "P", prod, nil, []WritePort{f})
	Spawn(k, "C", cons, []ReadPort{f}, nil)
	k.Run(0)

	if len(seqs) != 10 {
		t.Fatalf("consumed %d tokens, want 10", len(seqs))
	}
	for i, s := range seqs {
		if s != int64(i)+1 {
			t.Errorf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
	// Strictly periodic producer and consumer, same period: arrival i at i*100.
	for i, at := range arrivals {
		if at != des.Time(i)*100 {
			t.Errorf("arrival %d at %d, want %d", i, at, i*100)
		}
	}
}

func TestTransformAddsLatencyAndRewritesPayload(t *testing.T) {
	k := des.NewKernel()
	in := NewFIFO(k, "in", 4)
	out := NewFIFO(k, "out", 4)
	tr := Transform(WorkModel{BaseUs: 7}, 3, func(i int64, pl []byte) []byte {
		return append(pl, 0xFF)
	})
	Spawn(k, "T", tr, []ReadPort{in}, []WritePort{out})
	var got Token
	k.Spawn("drv", 0, func(p *des.Proc) {
		in.Write(p, Token{Seq: 1, Payload: []byte{1, 2}})
		got = out.Read(p)
	})
	k.Run(0)
	k.Shutdown()
	if got.Stamp != 7 {
		t.Errorf("transform output at %d, want 7 (base work)", got.Stamp)
	}
	if len(got.Payload) != 3 || got.Payload[2] != 0xFF {
		t.Errorf("payload = %v, want transformed", got.Payload)
	}
}

func TestTransformPortAridityPanics(t *testing.T) {
	k := des.NewKernel()
	tr := Transform(WorkModel{}, 1, nil)
	Spawn(k, "T", tr, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("transform without ports should panic")
		}
	}()
	k.Run(0)
}

func TestConsumerBlockedCountsAgainstBudget(t *testing.T) {
	// If the consumer blocks past its next activation, it reads
	// immediately afterwards instead of waiting another period.
	k := des.NewKernel()
	f := NewFIFO(k, "c", 4)
	var arrivals []des.Time
	cons := Consumer(rtc.PJD{Period: 10}, 1, 2, func(now des.Time, tok Token) {
		arrivals = append(arrivals, now)
	})
	Spawn(k, "C", cons, []ReadPort{f}, nil)
	k.Spawn("W", 0, func(p *des.Proc) {
		p.Delay(35)
		f.Write(p, Token{Seq: 1})
		f.Write(p, Token{Seq: 2})
	})
	k.Run(0)
	if len(arrivals) != 2 || arrivals[0] != 35 || arrivals[1] != 35 {
		t.Errorf("arrivals = %v, want [35 35]", arrivals)
	}
}

func TestWorkModelDurationNonNegative(t *testing.T) {
	w := WorkModel{BaseUs: 0, PerKBUs: 0, JitterUs: 0}
	k := des.NewKernel()
	in := NewFIFO(k, "in", 1)
	out := NewFIFO(k, "out", 1)
	tr := Transform(w, 1, nil)
	Spawn(k, "T", tr, []ReadPort{in}, []WritePort{out})
	var done bool
	k.Spawn("drv", 0, func(p *des.Proc) {
		in.Write(p, Token{Seq: 1})
		out.Read(p)
		done = true
	})
	k.Run(0)
	k.Shutdown()
	if !done {
		t.Error("zero-cost transform should still move tokens")
	}
}

package fault

import (
	"bytes"
	"hash/fnv"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
)

func TestGrayModeStrings(t *testing.T) {
	cases := map[Mode]string{
		Drift: "drift", Burst: "burst", DropTokens: "drop-tokens", Corrupt: "corrupt",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestDriftRampsDelay: the per-write delay grows linearly from zero at
// injection to ExtraUs once RampUs has elapsed.
func TestDriftRampsDelay(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 64)
	s := NewSwitch(k)
	gated := GateWrite(f, s)
	s.Inject(Drift, Gray{ExtraUs: 100, RampUs: 1000})
	var stamps []des.Time
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := 0; i < 5; i++ {
			// Land write i at elapsed 0, 250, 500, 750, 1000.
			if at := des.Time(i) * 250; at > k.Now() {
				p.Delay(at - k.Now())
			}
			before := k.Now()
			gated.Write(p, kpn.Token{Seq: int64(i + 1)})
			stamps = append(stamps, k.Now()-before)
		}
	})
	k.Run(0)
	if len(stamps) != 5 {
		t.Fatalf("got %d writes", len(stamps))
	}
	// First write at elapsed 0: no extra delay yet.
	if stamps[0] != 0 {
		t.Errorf("write at elapsed 0 delayed %d, want 0", stamps[0])
	}
	// Delays must be non-decreasing and reach full strength.
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Errorf("drift delay shrank: %v", stamps)
		}
	}
	if last := stamps[len(stamps)-1]; last != 100 {
		t.Errorf("post-ramp delay = %d, want 100", last)
	}
}

// TestDriftZeroRampIsDegrade: RampUs = 0 starts at full strength.
func TestDriftZeroRampIsDegrade(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 8)
	s := NewSwitch(k)
	gated := GateWrite(f, s)
	s.Inject(Drift, Gray{ExtraUs: 42})
	var delay des.Time
	k.Spawn("w", 0, func(p *des.Proc) {
		before := k.Now()
		gated.Write(p, kpn.Token{Seq: 1})
		delay = k.Now() - before
	})
	k.Run(0)
	if delay != 42 {
		t.Errorf("zero-ramp drift delay = %d, want 42", delay)
	}
}

// TestBurstDutyCycle: writes in the on-window stall to its end; writes
// in the off-window pass untouched.
func TestBurstDutyCycle(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 64)
	s := NewSwitch(k)
	gated := GateWrite(f, s)
	// On for 100 of every 1000, injected at t=0.
	s.Inject(Burst, Gray{OnUs: 100, PeriodUs: 1000})
	type rec struct{ start, end des.Time }
	var recs []rec
	k.Spawn("w", 0, func(p *des.Proc) {
		for _, at := range []des.Time{0, 50, 150, 1020, 1500} {
			if at > k.Now() {
				p.Delay(at - k.Now())
			}
			start := k.Now()
			gated.Write(p, kpn.Token{Seq: 1})
			recs = append(recs, rec{start, k.Now()})
		}
	})
	k.Run(0)
	want := []rec{
		{0, 100},     // phase 0: stall to end of on-window
		{100, 100},   // pushed to 100 by previous stall; phase 100 = off
		{150, 150},   // off-window
		{1020, 1100}, // second period's on-window
		{1500, 1500}, // off
	}
	for i, w := range want {
		if i >= len(recs) || recs[i] != w {
			t.Fatalf("write %d: got %+v, want %+v (all: %+v)", i, recs[i], w, recs)
		}
	}
}

// TestBurstRepairWakes: a repair during an on-window stall releases the
// writer immediately instead of serving the rest of the stall.
func TestBurstRepairWakes(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 8)
	s := NewSwitch(k)
	gated := GateWrite(f, s)
	s.Inject(Burst, Gray{OnUs: 500, PeriodUs: 1000})
	s.RepairAt(100)
	var done des.Time
	k.Spawn("w", 0, func(p *des.Proc) {
		gated.Write(p, kpn.Token{Seq: 1})
		done = k.Now()
	})
	k.Run(0)
	// The stall re-checks mode after each delay slice; with the mode
	// cleared at 100 the write completes at the first re-check, well
	// before the 500us the full on-window would have cost.
	if done > 500 {
		t.Errorf("write completed at %d, want before the full on-window end", done)
	}
}

// TestDropTokensEveryN: every N-th gated write vanishes, the rest pass.
func TestDropTokensEveryN(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 64)
	s := NewSwitch(k)
	gated := GateWrite(f, s)
	s.Inject(DropTokens, Gray{EveryN: 3})
	var got []int64
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := int64(1); i <= 9; i++ {
			gated.Write(p, kpn.Token{Seq: i})
		}
	})
	k.Spawn("r", 0, func(p *des.Proc) {
		for i := 0; i < 6; i++ {
			got = append(got, f.Read(p).Seq)
		}
	})
	k.Run(0)
	want := []int64{1, 2, 4, 5, 7, 8} // ops 3, 6, 9 dropped
	if len(got) != len(want) {
		t.Fatalf("read %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("read %v, want %v", got, want)
		}
	}
	if d := s.Drops(); d != 3 {
		t.Errorf("Drops() = %d, want 3", d)
	}
}

// TestCorruptFlipsByteDeterministically: the corrupted byte position
// follows (Seed+ops) %% len, the original payload slice is untouched,
// and the same seed reproduces the same corruption.
func TestCorruptFlipsByteDeterministically(t *testing.T) {
	run := func(seed uint64) [][]byte {
		k := des.NewKernel()
		f := kpn.NewFIFO(k, "c", 64)
		s := NewSwitch(k)
		gated := GateWrite(f, s)
		s.Inject(Corrupt, Gray{EveryN: 2, Seed: seed})
		orig := []byte{1, 2, 3, 4}
		var out [][]byte
		k.Spawn("w", 0, func(p *des.Proc) {
			for i := int64(1); i <= 4; i++ {
				gated.Write(p, kpn.Token{Seq: i, Payload: orig})
			}
		})
		k.Spawn("r", 0, func(p *des.Proc) {
			for i := 0; i < 4; i++ {
				out = append(out, f.Read(p).Payload)
			}
		})
		k.Run(0)
		if !bytes.Equal(orig, []byte{1, 2, 3, 4}) {
			t.Fatalf("corruption mutated the shared payload: %v", orig)
		}
		return out
	}
	a := run(7)
	// ops 2 and 4 corrupted, 1 and 3 clean.
	if !bytes.Equal(a[0], []byte{1, 2, 3, 4}) || !bytes.Equal(a[2], []byte{1, 2, 3, 4}) {
		t.Fatalf("clean writes corrupted: %v", a)
	}
	if bytes.Equal(a[1], []byte{1, 2, 3, 4}) || bytes.Equal(a[3], []byte{1, 2, 3, 4}) {
		t.Fatalf("scheduled writes not corrupted: %v", a)
	}
	b := run(7)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("corruption not deterministic: %v vs %v", a, b)
		}
	}
}

// TestCorruptMemoTokenHashesItsBytes: corrupting a token built from a
// kpn.PayloadMemo entry whose digest is already cached yields a token
// that hashes its own corrupted bytes, not the golden digest, while the
// memo's golden payload stays untouched.
func TestCorruptMemoTokenHashesItsBytes(t *testing.T) {
	memo := kpn.NewPayloadMemo()
	golden := memo.Token("s", 1, 0, func() []byte { return []byte{1, 2, 3, 4, 5, 6, 7, 8} })
	goldenHash := golden.Hash()
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 4)
	s := NewSwitch(k)
	gated := GateWrite(f, s)
	s.Inject(Corrupt, Gray{EveryN: 1, Seed: 3})
	var got kpn.Token
	k.Spawn("w", 0, func(p *des.Proc) { gated.Write(p, golden) })
	k.Spawn("r", 0, func(p *des.Proc) { got = f.Read(p) })
	k.Run(0)
	if bytes.Equal(got.Payload, golden.Payload) {
		t.Fatal("write was not corrupted")
	}
	h := fnv.New64a()
	h.Write(got.Payload)
	if got.Hash() != h.Sum64() {
		t.Fatalf("corrupted token Hash = %x, want the hash of its bytes %x", got.Hash(), h.Sum64())
	}
	if got.Hash() == goldenHash {
		t.Fatal("corrupted token hashed to the golden digest")
	}
	if p, _ := memo.Lookup("s", 1); !bytes.Equal(p, []byte{1, 2, 3, 4, 5, 6, 7, 8}) || golden.Hash() != goldenHash {
		t.Fatalf("corruption touched the memo's golden payload: %v", p)
	}
}

// TestRepairClearsGray: repairing a gray fault clears its config so a
// later plain injection starts clean.
func TestRepairClearsGray(t *testing.T) {
	k := des.NewKernel()
	s := NewSwitch(k)
	s.Inject(DropTokens, Gray{EveryN: 1})
	s.Repair()
	if s.gray != (Gray{}) || s.ops != 0 {
		t.Errorf("repair left gray state: %+v ops=%d", s.gray, s.ops)
	}
	if d := s.Drops(); d != 0 {
		t.Errorf("Drops() = %d after repair, want 0", d)
	}
}

package fault

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
)

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		None: "none", StopConsuming: "stop-consuming", StopProducing: "stop-producing",
		StopAll: "stop-all", Degrade: "degrade", Mode(42): "Mode(42)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestSwitchInjectOnce(t *testing.T) {
	k := des.NewKernel()
	s := NewSwitch(k)
	if _, ok := s.InjectedAt(); ok {
		t.Error("fresh switch reports injected")
	}
	s.Inject(StopAll, Gray{})
	at, ok := s.InjectedAt()
	if !ok || at != 0 || s.Mode() != StopAll {
		t.Errorf("after inject: at=%d ok=%v mode=%s", at, ok, s.Mode())
	}
	// Permanent: a second injection is ignored.
	s.Inject(Degrade, Gray{ExtraUs: 100})
	if s.Mode() != StopAll {
		t.Error("switch must be permanent once tripped")
	}
	// Injecting None is a no-op.
	s2 := NewSwitch(k)
	s2.Inject(None, Gray{})
	if _, ok := s2.InjectedAt(); ok {
		t.Error("Inject(None) must not arm the switch")
	}
}

func TestInjectAtSchedules(t *testing.T) {
	k := des.NewKernel()
	s := NewSwitch(k)
	s.InjectAt(500, StopProducing, Gray{})
	k.Spawn("obs", 0, func(p *des.Proc) {
		p.Delay(499)
		if s.Mode() != None {
			t.Error("fault fired early")
		}
		p.Delay(2)
		if s.Mode() != StopProducing {
			t.Error("fault did not fire at 500")
		}
	})
	k.Run(0)
}

func TestStopConsumingBlocksReads(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 4)
	s := NewSwitch(k)
	gated := GateRead(f, s)
	var reads int
	k.Spawn("r", 0, func(p *des.Proc) {
		for {
			gated.Read(p)
			reads++
			p.Delay(10)
		}
	})
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := int64(1); i <= 10; i++ {
			f.Write(p, kpn.Token{Seq: i})
			p.Delay(10)
		}
	})
	s.InjectAt(35, StopConsuming, Gray{})
	k.Run(0)
	k.Shutdown()
	if reads != 4 { // t = 0,10,20,30
		t.Errorf("reads = %d, want 4 (stopped at t=35)", reads)
	}
	if gated.PortName() != "c" {
		t.Error("gate must preserve port name")
	}
}

func TestStopProducingBlocksWrites(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 100)
	s := NewSwitch(k)
	gated := GateWrite(f, s)
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := int64(1); ; i++ {
			gated.Write(p, kpn.Token{Seq: i})
			p.Delay(10)
		}
	})
	s.InjectAt(45, StopProducing, Gray{})
	k.Run(0)
	k.Shutdown()
	if f.Writes() != 5 { // t = 0,10,20,30,40
		t.Errorf("writes = %d, want 5", f.Writes())
	}
	if gated.PortName() != "c" {
		t.Error("gate must preserve port name")
	}
}

func TestDegradeSlowsOperations(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 100)
	s := NewSwitch(k)
	s.Inject(Degrade, Gray{ExtraUs: 25})
	gated := GateWrite(f, s)
	var done des.Time
	k.Spawn("w", 0, func(p *des.Proc) {
		gated.Write(p, kpn.Token{Seq: 1})
		gated.Write(p, kpn.Token{Seq: 2})
		done = p.Now()
	})
	k.Run(0)
	if done != 50 {
		t.Errorf("two degraded writes finished at %d, want 50", done)
	}
	if f.Writes() != 2 {
		t.Errorf("degrade must not drop tokens: writes = %d", f.Writes())
	}
}

func TestStopAllBlocksBothDirections(t *testing.T) {
	k := des.NewKernel()
	in := kpn.NewFIFO(k, "in", 4)
	out := kpn.NewFIFO(k, "out", 4)
	s := NewSwitch(k)
	gr, gw := GateRead(in, s), GateWrite(out, s)
	var ops int
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := int64(1); ; i++ {
			in.Write(p, kpn.Token{Seq: i})
			p.Delay(10)
		}
	})
	k.Spawn("t", 0, func(p *des.Proc) {
		for {
			tok := gr.Read(p)
			gw.Write(p, tok)
			ops++
			p.Delay(10)
		}
	})
	s.InjectAt(25, StopAll, Gray{})
	k.Run(200)
	k.Shutdown()
	if ops != 3 { // t=0,10,20
		t.Errorf("ops = %d, want 3", ops)
	}
}

func TestRepairResumesInterface(t *testing.T) {
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 100)
	s := NewSwitch(k)
	gated := GateWrite(f, s)
	k.Spawn("w", 0, func(p *des.Proc) {
		for i := int64(1); i <= 10; i++ {
			gated.Write(p, kpn.Token{Seq: i})
			p.Delay(10)
		}
	})
	s.InjectAt(25, StopProducing, Gray{}) // pauses writes 4..N
	s.RepairAt(95)                        // transient fault: resume
	k.Run(0)
	k.Shutdown()
	if f.Writes() != 10 {
		t.Errorf("writes = %d, want all 10 after repair", f.Writes())
	}
	if !s.Repaired() || s.Mode() != None {
		t.Error("switch should report repaired and healthy")
	}
	if _, injected := s.InjectedAt(); !injected {
		t.Error("ever-injected flag must stay latched across repair")
	}
}

func TestRepairNoOpWhenHealthy(t *testing.T) {
	k := des.NewKernel()
	s := NewSwitch(k)
	s.Repair()
	if s.Repaired() {
		t.Error("repairing a healthy switch must be a no-op")
	}
}

func TestReinjectAfterRepair(t *testing.T) {
	k := des.NewKernel()
	s := NewSwitch(k)
	s.Inject(Degrade, Gray{ExtraUs: 100})
	s.Repair()
	s.Inject(StopAll, Gray{})
	if s.Mode() != StopAll {
		t.Errorf("mode after re-injection = %s, want stop-all", s.Mode())
	}
}

func TestFaultWhileBlockedInsideReadDoesNotLeakToken(t *testing.T) {
	// Reader blocks on an empty FIFO; fault fires while blocked; a token
	// then arrives. The faulty replica must not forward it.
	k := des.NewKernel()
	f := kpn.NewFIFO(k, "c", 4)
	s := NewSwitch(k)
	gated := GateRead(f, s)
	var forwarded bool
	k.Spawn("r", 0, func(p *des.Proc) {
		gated.Read(p)
		forwarded = true
	})
	s.InjectAt(10, StopConsuming, Gray{})
	k.Spawn("w", 0, func(p *des.Proc) {
		p.Delay(50)
		f.Write(p, kpn.Token{Seq: 1})
	})
	k.Run(0)
	k.Shutdown()
	if forwarded {
		t.Error("token leaked through a stopped replica interface")
	}
}

package ft

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/kpn"
)

// TestNWayRepairAtReintegration drives the m-way channels (N=3) through
// a full transient-fault cycle on a fault.Switch: replica 2 stops, is
// convicted by both detectors, is repaired via RepairAt with its queue
// re-armed and its selector interface re-synchronized, and is then
// convicted again by a second injection — proving detection re-armed at
// N>2 while the consumer stream stays token-identical throughout.
func TestNWayRepairAtReintegration(t *testing.T) {
	const (
		tokens   = 60
		periodUs = 10
		injectUs = 150
		repairUs = 250
		secondUs = 450
	)
	k := des.NewKernel()
	var faults []Fault
	record := func(f Fault) { faults = append(faults, f) }
	rep := NewNReplicator(k, "R", []int{4, 4, 4}, record)
	rep.DReads = 3
	sel := NewNSelector(k, "S", []int{8, 8, 8}, []int{0, 0, 0}, 3, nil, record)

	sw := fault.NewSwitch(k)
	k.Spawn("producer", 0, func(p *des.Proc) {
		w := rep.WriterPort()
		for i := int64(1); i <= tokens; i++ {
			w.Write(p, kpn.Token{Seq: i})
			p.Delay(periodUs)
		}
	})
	for r := 1; r <= 3; r++ {
		in, out := rep.ReaderPort(r), sel.WriterPort(r)
		if r == 2 {
			in, out = fault.GateRead(in, sw), fault.GateWrite(out, sw)
		}
		k.Spawn("w", 0, func(p *des.Proc) {
			for {
				out.Write(p, in.Read(p))
			}
		})
	}
	var got []int64
	k.Spawn("consumer", periodUs/2, func(p *des.Proc) {
		r := sel.ReaderPort()
		for i := 0; i < tokens; i++ {
			got = append(got, r.Read(p).Seq)
			p.Delay(periodUs)
		}
	})

	sw.InjectAt(injectUs, fault.StopAll, fault.Gray{})
	// Repair and re-integration in one event, re-arm before the replica
	// wakes: purge + refill the queue, resync the selector interface,
	// then lift the switch.
	k.At(repairUs, func() {
		if !rep.Reintegrate(2, 2, 4) {
			t.Error("replicator re-integration refused")
		}
		if !sel.Reintegrate(2) {
			t.Error("selector re-integration refused")
		}
		sw.Repair()
	})
	sw.InjectAt(secondUs, fault.StopAll, fault.Gray{})
	k.Run(0)
	k.Shutdown()

	for i, seq := range got {
		if seq != int64(i)+1 {
			t.Fatalf("consumer token %d has seq %d, want %d: %v", i, seq, i+1, got)
		}
	}
	var first, second des.Time = -1, -1
	for _, f := range faults {
		if f.Replica != 2 {
			t.Fatalf("healthy replica convicted: %v", f)
		}
		switch {
		case f.At >= secondUs && second < 0:
			second = f.At
		case f.At >= injectUs && f.At < repairUs && first < 0:
			first = f.At
		}
	}
	if first < 0 {
		t.Fatalf("first fault never detected: %v", faults)
	}
	if second < 0 {
		t.Fatalf("second fault after re-integration never detected (redundancy not restored): %v", faults)
	}
	for _, f := range faults {
		if f.At >= repairUs && f.At < secondUs {
			t.Fatalf("replica 2 re-convicted inside the recovered window: %v", f)
		}
	}
	if sel.Resyncing(2) {
		t.Error("selector interface 2 never completed resynchronization")
	}
	if !sw.Repaired() || len(sw.Injections()) != 2 {
		t.Errorf("switch history: repaired=%v injections=%d, want true/2", sw.Repaired(), len(sw.Injections()))
	}
	if err := rep.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := sel.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

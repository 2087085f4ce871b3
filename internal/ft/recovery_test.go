package ft

import (
	"fmt"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/kpn"
)

// recoveryBuildConfig arms both detectors with thresholds safe for
// pipelineNet's small jitters.
func recoveryBuildConfig() BuildConfig {
	return BuildConfig{
		ReplicatorD: map[string]int64{"FP": 3},
		SelectorD:   map[string]int64{"FC": 3},
	}
}

// runRecoveryScenario executes pipelineNet with a fault on replica at
// injectUs, repair + re-integration at repairUs, and a second fault at
// secondUs, returning the system and the consumer stream.
func runRecoveryScenario(t *testing.T, tokens int64, replica int, mode fault.Mode, extraUs, injectUs, repairUs, secondUs des.Time) (*System, []kpn.Token) {
	t.Helper()
	k := des.NewKernel()
	var sink []kpn.Token
	sys, err := Build(k, pipelineNet(tokens, &sink), recoveryBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.InjectFault(replica, injectUs, mode, extraUs)
	k.At(repairUs, func() { sys.Reintegrate(replica) })
	if secondUs > 0 {
		sys.InjectFault(replica, secondUs, fault.StopAll, 0)
	}
	k.Run(0)
	k.Shutdown()
	return sys, sink
}

// goldenStream is the consumer stream of a fault-free duplicated run.
func goldenStream(t *testing.T, tokens int64) []kpn.Token {
	t.Helper()
	k := des.NewKernel()
	var sink []kpn.Token
	if _, err := Build(k, pipelineNet(tokens, &sink), recoveryBuildConfig()); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	return sink
}

func sameStream(a, b []kpn.Token) error {
	if len(a) != len(b) {
		return fmt.Errorf("stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Hash() != b[i].Hash() {
			return fmt.Errorf("token %d: (seq %d, hash %x) vs (seq %d, hash %x)",
				i, a[i].Seq, a[i].Hash(), b[i].Seq, b[i].Hash())
		}
	}
	return nil
}

// TestRecoveryToleratesSecondFault is the tentpole property: after a
// detected fault, repair plus re-integration restores full redundancy,
// the consumer stream stays token-identical to the fault-free run, the
// healthy replica is never convicted, and a second fault on the
// re-integrated replica is detected again.
func TestRecoveryToleratesSecondFault(t *testing.T) {
	const tokens = 400
	golden := goldenStream(t, tokens)
	cases := []struct {
		name    string
		replica int
		mode    fault.Mode
		extraUs des.Time
	}{
		{"stop-all-r2", 2, fault.StopAll, 0},
		{"stop-consuming-r1", 1, fault.StopConsuming, 0},
		{"stop-producing-r2", 2, fault.StopProducing, 0},
		{"degrade-r1", 1, fault.Degrade, 3000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, sink := runRecoveryScenario(t, tokens, tc.replica, tc.mode, tc.extraUs,
				50_000, 120_000, 250_000)
			if err := sameStream(golden, sink); err != nil {
				t.Errorf("consumer stream diverged from golden run: %v", err)
			}
			healthy := 3 - tc.replica
			for _, f := range sys.Faults {
				if f.Replica == healthy {
					t.Errorf("healthy replica R%d convicted: %v", healthy, f)
				}
			}
			first, ok := sys.FirstFault(tc.replica)
			if !ok || first.At < 50_000 || first.At >= 120_000 {
				t.Fatalf("first fault detection = %v (ok=%v), want in [50ms, 120ms)", first, ok)
			}
			// No spurious re-conviction between recovery and the second
			// fault, and the second fault is detected.
			second := des.Time(-1)
			for _, f := range sys.Faults {
				if f.Replica == tc.replica && f.At >= 120_000 {
					if f.At < 250_000 {
						t.Errorf("spurious re-conviction after recovery: %v", f)
					} else if second < 0 {
						second = f.At
					}
				}
			}
			if second < 0 {
				t.Errorf("second fault at t=250ms was not detected; faults: %v", sys.Faults)
			}
			if sel := sys.Selectors["FC"]; sel.Resyncing(tc.replica) {
				t.Errorf("selector interface R%d never completed resynchronization", tc.replica)
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Errorf("counter invariants violated: %v", err)
			}
			if w := sys.Selectors["FC"].Writes(healthy); w != tokens {
				t.Errorf("healthy replica wrote %d of %d tokens (back-pressured?)", w, tokens)
			}
		})
	}
}

// TestRecoveryWithoutSecondFault checks that a recovered system simply
// runs on cleanly when no further fault arrives.
func TestRecoveryWithoutSecondFault(t *testing.T) {
	const tokens = 300
	golden := goldenStream(t, tokens)
	sys, sink := runRecoveryScenario(t, tokens, 2, fault.StopAll, 0, 40_000, 90_000, 0)
	if err := sameStream(golden, sink); err != nil {
		t.Errorf("consumer stream diverged from golden run: %v", err)
	}
	for _, f := range sys.Faults {
		if f.Replica == 2 && f.At >= 90_000 {
			t.Errorf("re-conviction after recovery with no second fault: %v", f)
		}
		if f.Replica == 1 {
			t.Errorf("healthy replica convicted: %v", f)
		}
	}
	if sys.Selectors["FC"].Resyncing(2) {
		t.Error("selector interface R2 never completed resynchronization")
	}
	// Redundancy restored: both interfaces participated in the tail of
	// the stream (the recovered replica's write count grows past its
	// stale level).
	sel := sys.Selectors["FC"]
	if sel.Writes(2) == 0 || sel.ResyncDrops(2) == 0 {
		t.Errorf("recovered replica writes=%d resyncDrops=%d, want both > 0",
			sel.Writes(2), sel.ResyncDrops(2))
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Errorf("counter invariants violated: %v", err)
	}
}

// TestSelectorReintegrateNeedsHealthyReference verifies the guard: with
// the other interface convicted, re-integration is refused.
func TestSelectorReintegrateNeedsHealthyReference(t *testing.T) {
	k := des.NewKernel()
	s := NewSelector(k, "S", [2]int{4, 4}, [2]int{1, 1}, 0, nil, nil)
	s.flag(0, ReasonQueueFull)
	s.flag(1, ReasonDivergence)
	if s.Reintegrate(2) {
		t.Error("Reintegrate should refuse with no healthy reference interface")
	}
	s.reinstate(0)
	if !s.Reintegrate(2) {
		t.Error("Reintegrate should accept once the other interface is healthy")
	}
	if !s.Resyncing(2) {
		t.Error("interface 2 should be resynchronizing")
	}
	k.Shutdown()
}

// TestReplicatorReintegrateMirrorsHealthyQueue drives the replicator
// directly: convict replica 2, keep writing, then re-integrate and
// check the re-armed queue mirrors the healthy backlog.
func TestReplicatorReintegrateMirrorsHealthyQueue(t *testing.T) {
	k := des.NewKernel()
	r := NewReplicator(k, "R", [2]int{4, 8}, nil)
	k.Spawn("P", 0, func(p *des.Proc) {
		for i := int64(1); i <= 10; i++ {
			r.WriterPort().Write(p, kpn.Token{Seq: i})
			p.Delay(100)
		}
	})
	k.Spawn("C1", 0, func(p *des.Proc) {
		for i := 0; i < 10; i++ {
			r.ReaderPort(1).Read(p)
			p.Delay(150)
		}
	})
	// Replica 2 never reads: queue 2 (cap 8) fills and convicts at the
	// 9th write.
	k.Run(0)
	if f, _, reason := r.Faulty(2); !f || reason != ReasonQueueFull {
		t.Fatalf("replica 2 = (%v, %v), want queue-full conviction", f, reason)
	}
	if !r.Reintegrate(2, 8, 4) {
		t.Fatal("Reintegrate refused despite healthy replica 1")
	}
	if f, _, _ := r.Faulty(2); f {
		t.Error("replica 2 still convicted after re-integration")
	}
	// Replica 1 consumed slower than the producer wrote, so its backlog
	// is the newest tokens; replica 2's queue must now mirror it.
	want := r.Fill(1)
	if got := r.Fill(2); got != want {
		t.Errorf("re-armed fill = %d, want mirror of healthy fill %d", got, want)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Errorf("bookkeeping invariant violated: %v", err)
	}
	k.Shutdown()
}

// TestSystemReintegrateDefaultRearm pins the re-arm System.Reintegrate
// applies to every replicator: the repaired replica's queue holds the
// newest min(capacity-1, healthy fill) tokens of the healthy queue,
// with a read-divergence grace of capacity + DReads, and its fault
// switch is repaired in the same call.
func TestSystemReintegrateDefaultRearm(t *testing.T) {
	k := des.NewKernel()
	sys := &System{K: k, Replicators: map[string]*Replicator{}, Selectors: map[string]*Selector{}}
	for i := range sys.Switches {
		sys.Switches[i] = fault.NewSwitch(k)
	}
	// healthy is replica 1's fill when replica 2 is re-admitted: "trim"
	// keeps more tokens than replica 2's capacity-1, "mirror" fewer.
	for _, c := range []struct {
		name    string
		caps    [2]int
		dReads  int64
		healthy int
	}{
		{"trim", [2]int{6, 4}, 3, 5},
		{"mirror", [2]int{4, 5}, 0, 2},
		{"empty", [2]int{3, 3}, 2, 0},
	} {
		r := NewReplicator(k, c.name, c.caps, nil)
		r.DReads = c.dReads
		// Replica 2 never reads: its queue fills and the next write
		// convicts it. Replica 1 reads all but the last healthy tokens.
		writes := c.caps[1] + 1 + c.healthy
		for seq := 1; seq <= writes; seq++ {
			r.TryWrite(kpn.Token{Seq: int64(seq)})
			if seq <= writes-c.healthy {
				r.TryRead(1)
			}
		}
		if f, _, _ := r.Faulty(2); !f {
			t.Fatalf("%s: replica 2 not convicted", c.name)
		}
		sys.Replicators[c.name] = r
	}
	sys.Switches[1].Inject(fault.StopAll, fault.Gray{})

	healthy := map[string][]kpn.Token{}
	for name, r := range sys.Replicators {
		healthy[name] = append([]kpn.Token(nil), r.q[0].toks...)
	}
	if !sys.Reintegrate(2) {
		t.Fatal("Reintegrate refused despite healthy replica 1")
	}
	if sw := sys.Switches[1]; sw.Mode() != fault.None || !sw.Repaired() {
		t.Errorf("switch 2 = %v (repaired %v), want repaired", sw.Mode(), sw.Repaired())
	}
	for name, r := range sys.Replicators {
		src := healthy[name]
		want := src[len(src)-min(r.Capacity(2)-1, len(src)):]
		q := r.q[1]
		if fmt.Sprint(q.toks) != fmt.Sprint(want) {
			t.Errorf("%s: re-armed queue %v, want newest %d of healthy %v", name, q.toks, len(want), src)
		}
		if g := int64(r.Capacity(2)) + r.DReads; q.grace != g {
			t.Errorf("%s: grace %d, want capacity + DReads = %d", name, q.grace, g)
		}
		if f, _, _ := r.Faulty(2); f {
			t.Errorf("%s: replica 2 still convicted", name)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

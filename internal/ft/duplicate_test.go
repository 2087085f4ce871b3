package ft

import (
	"strings"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
	"ftpn/internal/scc"
)

// pipelineNet builds a P -> W1 -> W2 -> C reference network whose
// critical subnetwork is the two workers. Payloads are deterministic
// functions of the sequence number so value equivalence is checkable.
// Replica diversity: replica 2 has extra work jitter.
func pipelineNet(tokens int64, sink *[]kpn.Token) *kpn.Network {
	return &kpn.Network{
		Name: "pipe",
		Procs: []kpn.ProcessSpec{
			{Name: "P", Role: kpn.RoleProducer, New: func(int) kpn.Behavior {
				return kpn.Producer(rtc.PJD{Period: 1000}, 1, tokens, func(i int64) []byte {
					return []byte{byte(i), byte(i >> 8)}
				})
			}},
			{Name: "W1", Role: kpn.RoleCritical, New: func(replica int) kpn.Behavior {
				return kpn.Transform(kpn.WorkModel{BaseUs: 50, JitterUs: des.Time(replica) * 100}, 7, func(i int64, pl []byte) []byte {
					out := append([]byte{}, pl...)
					return append(out, 0xA0)
				})
			}},
			{Name: "W2", Role: kpn.RoleCritical, New: func(replica int) kpn.Behavior {
				return kpn.Transform(kpn.WorkModel{BaseUs: 30, JitterUs: des.Time(replica) * 50}, 8, func(i int64, pl []byte) []byte {
					out := append([]byte{}, pl...)
					return append(out, 0xB0)
				})
			}},
			{Name: "C", Role: kpn.RoleConsumer, New: func(int) kpn.Behavior {
				return kpn.Consumer(rtc.PJD{Period: 1000}, 2, tokens, func(now des.Time, tok kpn.Token) {
					if sink != nil {
						*sink = append(*sink, tok)
					}
				})
			}},
		},
		Chans: []kpn.ChannelSpec{
			{Name: "FP", From: "P", To: "W1", Capacity: 4, TokenBytes: 2},
			{Name: "FI", From: "W1", To: "W2", Capacity: 4, TokenBytes: 3},
			{Name: "FC", From: "W2", To: "C", Capacity: 8, InitialTokens: 2, TokenBytes: 4},
		},
	}
}

func TestBuildStructure(t *testing.T) {
	k := des.NewKernel()
	sys, err := Build(k, pipelineNet(5, nil), BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Replicators) != 1 || sys.Replicators["FP"] == nil {
		t.Errorf("replicators = %v, want FP", sys.Replicators)
	}
	if len(sys.Selectors) != 1 || sys.Selectors["FC"] == nil {
		t.Errorf("selectors = %v, want FC", sys.Selectors)
	}
	for _, name := range []string{"FI#1", "FI#2"} {
		if sys.FIFOs[name] == nil {
			t.Errorf("internal FIFO %s missing", name)
		}
	}
	k.Run(0)
	k.Shutdown()
}

func TestBuildRejectsBadNetworks(t *testing.T) {
	k := des.NewKernel()
	// No critical process.
	n := pipelineNet(1, nil)
	for i := range n.Procs {
		n.Procs[i].Role = kpn.RoleProducer
	}
	if _, err := Build(k, n, BuildConfig{}); err == nil {
		t.Error("network without critical subnetwork should be rejected")
	}
	// Critical output into a producer.
	n2 := pipelineNet(1, nil)
	n2.Procs[3].Role = kpn.RoleProducer
	if _, err := Build(k, n2, BuildConfig{}); err == nil {
		t.Error("critical output into non-consumer should be rejected")
	}
	// Structurally invalid network.
	n3 := pipelineNet(1, nil)
	n3.Chans[0].Capacity = 0
	if _, err := Build(k, n3, BuildConfig{}); err == nil {
		t.Error("invalid network should be rejected")
	}
}

// runReference returns the consumer-visible token stream of the
// reference network.
func runReference(t *testing.T, tokens int64) []kpn.Token {
	t.Helper()
	var sink []kpn.Token
	k := des.NewKernel()
	if _, err := pipelineNet(tokens, &sink).Instantiate(k); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	return sink
}

// runDuplicated returns the consumer-visible stream of the duplicated
// network, optionally injecting a fault.
func runDuplicated(t *testing.T, tokens int64, inject func(*System)) ([]kpn.Token, *System) {
	t.Helper()
	var sink []kpn.Token
	k := des.NewKernel()
	sys, err := Build(k, pipelineNet(tokens, &sink), BuildConfig{
		SelectorCaps:  map[string][2]int{"FC": {8, 8}},
		SelectorInits: map[string][2]int{"FC": {2, 2}},
		SelectorD:     map[string]int64{"FC": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inject != nil {
		inject(sys)
	}
	k.Run(0)
	k.Shutdown()
	return sink, sys
}

// compareStreams checks value equivalence of produced (Seq > 0) tokens.
func compareStreams(t *testing.T, ref, dup []kpn.Token) {
	t.Helper()
	filter := func(in []kpn.Token) []kpn.Token {
		var out []kpn.Token
		for _, tok := range in {
			if tok.Seq > 0 {
				out = append(out, tok)
			}
		}
		return out
	}
	r, d := filter(ref), filter(dup)
	if len(r) != len(d) {
		t.Fatalf("stream lengths differ: ref %d vs dup %d", len(r), len(d))
	}
	for i := range r {
		if r[i].Seq != d[i].Seq || r[i].Hash() != d[i].Hash() {
			t.Fatalf("token %d differs: ref seq=%d hash=%x, dup seq=%d hash=%x",
				i, r[i].Seq, r[i].Hash(), d[i].Seq, d[i].Hash())
		}
	}
}

func TestTheorem2EquivalenceFaultFree(t *testing.T) {
	ref := runReference(t, 50)
	dup, sys := runDuplicated(t, 50, nil)
	compareStreams(t, ref, dup)
	if len(sys.Faults) != 0 {
		t.Errorf("fault-free run flagged faults: %v", sys.Faults)
	}
	if fp := sys.FalsePositives(); len(fp) != 0 {
		t.Errorf("false positives: %v", fp)
	}
}

func TestTheorem2EquivalenceUnderStopFault(t *testing.T) {
	ref := runReference(t, 50)
	for _, replica := range []int{1, 2} {
		replica := replica
		dup, sys := runDuplicated(t, 50, func(s *System) {
			s.InjectFault(replica, 20_000, fault.StopAll, 0)
		})
		compareStreams(t, ref, dup)
		f, ok := sys.FirstFault(replica)
		if !ok {
			t.Fatalf("fault on R%d not detected", replica)
		}
		if f.At < 20_000 {
			t.Errorf("detected at %d, before injection", f.At)
		}
		if fp := sys.FalsePositives(); len(fp) != 0 {
			t.Errorf("healthy replica flagged: %v", fp)
		}
	}
}

func TestDetectionUnderDegradeFault(t *testing.T) {
	// Replica 1 degrades to ~3x period per op; the divergence detector
	// at the selector must flag it without a queue-full event.
	_, sys := runDuplicated(t, 60, func(s *System) {
		s.InjectFault(1, 10_000, fault.Degrade, 3000)
	})
	f, ok := sys.FirstFault(1)
	if !ok {
		t.Fatal("degrade fault not detected")
	}
	if f.At < 10_000 {
		t.Errorf("detected at %d, before injection", f.At)
	}
	if fp := sys.FalsePositives(); len(fp) != 0 {
		t.Errorf("false positives: %v", fp)
	}
}

func TestStopConsumingDetectedAtReplicator(t *testing.T) {
	_, sys := runDuplicated(t, 60, func(s *System) {
		s.InjectFault(2, 5_000, fault.StopConsuming, 0)
	})
	if _, ok := sys.FirstFault(2); !ok {
		t.Fatal("stop-consuming fault not detected")
	}
	// The replicator must detect it independently of the selector
	// (§4.3: "the selector and the replicator can independently detect
	// faulty replicas"): queue 2 fills and a later write flags R_2.
	ok, at, reason := sys.Replicators["FP"].Faulty(2)
	if !ok || reason != ReasonQueueFull {
		t.Fatalf("replicator detection: ok=%v reason=%s, want queue-full", ok, reason)
	}
	if at < 5_000 {
		t.Errorf("replicator detected at %d, before injection", at)
	}
	// The selector must flag the same replica too (its stream dries up).
	if ok, _, _ := sys.Selectors["FC"].Faulty(2); !ok {
		t.Error("selector should independently flag the stalled replica")
	}
}

func TestBuildOnSCCPlacesOneProcessPerTile(t *testing.T) {
	chip, err := scc.New(scc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sink []kpn.Token
	k := des.NewKernel()
	sys, err := Build(k, pipelineNet(20, &sink), BuildConfig{Chip: chip})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Cores) != 6 { // P, C, W1#1, W1#2, W2#1, W2#2
		t.Fatalf("placed %d processes, want 6", len(sys.Cores))
	}
	tiles := map[int]bool{}
	for _, c := range sys.Cores {
		if tiles[c.Tile().ID] {
			t.Error("two processes share a tile")
		}
		tiles[c.Tile().ID] = true
	}
	k.Run(0)
	k.Shutdown()
	if len(sink) != 20 {
		t.Errorf("consumer saw %d tokens, want 20", len(sink))
	}
	if len(sys.Faults) != 0 {
		t.Errorf("unexpected faults on SCC run: %v", sys.Faults)
	}
}

func TestSystemDOT(t *testing.T) {
	k := des.NewKernel()
	sys, err := Build(k, pipelineNet(1, nil), BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dot := sys.DOT()
	for _, want := range []string{"replicator FP", "selector FC", `"W1#1"`, `"W1#2"`, `"W2#2"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	k.Run(0)
	k.Shutdown()
}

func TestInjectFaultValidation(t *testing.T) {
	k := des.NewKernel()
	sys, _ := Build(k, pipelineNet(1, nil), BuildConfig{})
	defer func() {
		if recover() == nil {
			t.Error("bad replica index should panic")
		}
	}()
	sys.InjectFault(3, 0, fault.StopAll, 0)
}

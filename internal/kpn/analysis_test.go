package kpn

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/rtc"
)

// feedbackNet builds a two-process network with a forward channel and a
// feedback channel carrying `init` initial tokens.
func feedbackNet(init int) *Network {
	passThrough := func(int) Behavior {
		return Body(func(p *des.Proc, in []ReadPort, out []WritePort) {
			for {
				tok := in[0].Read(p)
				if len(in) > 1 {
					in[1].Read(p)
				}
				for _, o := range out {
					o.Write(p, tok)
				}
			}
		})
	}
	return &Network{
		Name: "feedback",
		Procs: []ProcessSpec{
			{Name: "A", Role: kRoleCritical, New: passThrough},
			{Name: "B", Role: kRoleCritical, New: passThrough},
			{Name: "src", Role: RoleProducer, New: func(int) Behavior {
				return Producer(rtc.PJD{Period: 10}, 1, 5, nil)
			}},
		},
		Chans: []ChannelSpec{
			{Name: "in", From: "src", To: "A", Capacity: 4},
			{Name: "fwd", From: "A", To: "B", Capacity: 4},
			{Name: "fb", From: "B", To: "A", Capacity: 4, InitialTokens: init},
		},
	}
}

// kRoleCritical avoids import cycles in the test helper.
const kRoleCritical = RoleCritical

func TestCyclesDetected(t *testing.T) {
	n := feedbackNet(2)
	cycles := n.Cycles()
	if len(cycles) != 1 {
		t.Fatalf("found %d cycles, want 1: %v", len(cycles), cycles)
	}
	c := cycles[0]
	if len(c.Channels) != 2 || c.InitialTokens != 2 {
		t.Errorf("cycle = %v", c)
	}
	if c.String() == "" {
		t.Error("empty cycle rendering")
	}
}

func TestDeadlockRisks(t *testing.T) {
	if risks := feedbackNet(2).DeadlockRisks(); len(risks) != 0 {
		t.Errorf("preloaded feedback flagged: %v", risks)
	}
	risks := feedbackNet(0).DeadlockRisks()
	if len(risks) != 1 {
		t.Fatalf("token-free cycle not flagged: %v", risks)
	}
}

func TestAcyclicPipelineHasNoCycles(t *testing.T) {
	n := testNet(nil)
	if cycles := n.Cycles(); len(cycles) != 0 {
		t.Errorf("pipeline reported cycles: %v", cycles)
	}
}

func TestSelfLoopCycle(t *testing.T) {
	n := &Network{
		Name: "selfloop",
		Procs: []ProcessSpec{
			{Name: "A", Role: RoleCritical, New: func(int) Behavior {
				return Body(func(p *des.Proc, in []ReadPort, out []WritePort) {})
			}},
		},
		Chans: []ChannelSpec{
			{Name: "loop", From: "A", To: "A", Capacity: 2, InitialTokens: 1},
		},
	}
	cycles := n.Cycles()
	if len(cycles) != 1 || len(cycles[0].Channels) != 1 || cycles[0].InitialTokens != 1 {
		t.Errorf("self loop = %v", cycles)
	}
}

func TestTwoDistinctCyclesCountedOnce(t *testing.T) {
	// A <-> B with two parallel forward channels: two elementary cycles
	// (fwd1+back, fwd2+back), each counted exactly once regardless of
	// DFS start.
	n := &Network{
		Name: "multi",
		Procs: []ProcessSpec{
			{Name: "A", Role: RoleCritical, New: func(int) Behavior { return Body(func(*des.Proc, []ReadPort, []WritePort) {}) }},
			{Name: "B", Role: RoleCritical, New: func(int) Behavior { return Body(func(*des.Proc, []ReadPort, []WritePort) {}) }},
		},
		Chans: []ChannelSpec{
			{Name: "fwd1", From: "A", To: "B", Capacity: 1},
			{Name: "fwd2", From: "A", To: "B", Capacity: 1},
			{Name: "back", From: "B", To: "A", Capacity: 1, InitialTokens: 1},
		},
	}
	cycles := n.Cycles()
	if len(cycles) != 2 {
		t.Fatalf("found %d cycles, want 2: %v", len(cycles), cycles)
	}
}

// TestDeadlockRiskIsReal runs the token-free feedback network and shows
// it actually stalls: the analysis predicts real behaviour.
func TestDeadlockRiskIsReal(t *testing.T) {
	n := feedbackNet(0)
	k := des.NewKernel()
	if _, err := n.Instantiate(k); err != nil {
		t.Fatal(err)
	}
	end := k.Run(0)
	blocked := k.Blocked()
	k.Shutdown()
	// A stalls forever waiting on the empty feedback channel.
	if len(blocked) == 0 {
		t.Errorf("predicted deadlock did not materialize (end=%d)", end)
	}
	// The preloaded variant flows.
	n2 := feedbackNet(2)
	var consumed int
	n2.Procs[1].New = func(int) Behavior { // B: count and feed back
		return Body(func(p *des.Proc, in []ReadPort, out []WritePort) {
			for {
				tok := in[0].Read(p)
				consumed++
				out[0].Write(p, tok)
			}
		})
	}
	k2 := des.NewKernel()
	if _, err := n2.Instantiate(k2); err != nil {
		t.Fatal(err)
	}
	k2.Run(0)
	k2.Shutdown()
	if consumed != 5 {
		t.Errorf("preloaded feedback consumed %d tokens, want 5", consumed)
	}
}

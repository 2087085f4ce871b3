package kpn

import (
	"strings"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/rtc"
	"ftpn/internal/scc"
)

// testNet builds a minimal producer -> worker -> consumer network.
func testNet(onToken func(now des.Time, tok Token)) *Network {
	return &Network{
		Name: "test",
		Procs: []ProcessSpec{
			{Name: "P", Role: RoleProducer, New: func(int) Behavior {
				return Producer(rtc.PJD{Period: 100}, 1, 20, func(i int64) []byte { return []byte{byte(i)} })
			}},
			{Name: "W", Role: RoleCritical, New: func(replica int) Behavior {
				return Transform(WorkModel{BaseUs: 10, JitterUs: des.Time(replica) * 5}, 3, nil)
			}},
			{Name: "C", Role: RoleConsumer, New: func(int) Behavior {
				return Consumer(rtc.PJD{Period: 100}, 2, 20, onToken)
			}},
		},
		Chans: []ChannelSpec{
			{Name: "FP", From: "P", To: "W", Capacity: 4, TokenBytes: 1024},
			{Name: "FC", From: "W", To: "C", Capacity: 4, InitialTokens: 1, TokenBytes: 1024},
		},
	}
}

func TestNetworkValidate(t *testing.T) {
	n := testNet(nil)
	if err := n.Validate(); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Network)
	}{
		{"empty name", func(n *Network) { n.Name = "" }},
		{"unnamed proc", func(n *Network) { n.Procs[0].Name = "" }},
		{"dup proc", func(n *Network) { n.Procs[1].Name = "P" }},
		{"nil factory", func(n *Network) { n.Procs[0].New = nil }},
		{"unnamed chan", func(n *Network) { n.Chans[0].Name = "" }},
		{"dup chan", func(n *Network) { n.Chans[1].Name = "FP" }},
		{"bad from", func(n *Network) { n.Chans[0].From = "X" }},
		{"bad to", func(n *Network) { n.Chans[0].To = "X" }},
		{"zero cap", func(n *Network) { n.Chans[0].Capacity = 0 }},
		{"fill over cap", func(n *Network) { n.Chans[0].InitialTokens = 99 }},
		{"negative fill", func(n *Network) { n.Chans[0].InitialTokens = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := testNet(nil)
			c.mutate(bad)
			if err := bad.Validate(); err == nil {
				t.Error("expected validation failure")
			}
		})
	}
}

func TestNetworkAccessors(t *testing.T) {
	n := testNet(nil)
	if n.Proc("W") == nil || n.Proc("nope") != nil {
		t.Error("Proc lookup broken")
	}
	if ins := n.Inputs("W"); len(ins) != 1 || ins[0].Name != "FP" {
		t.Errorf("Inputs(W) = %v", ins)
	}
	if outs := n.Outputs("W"); len(outs) != 1 || outs[0].Name != "FC" {
		t.Errorf("Outputs(W) = %v", outs)
	}
}

func TestInstantiateRunsEndToEnd(t *testing.T) {
	var count int
	var lastSeq int64
	n := testNet(func(now des.Time, tok Token) {
		count++
		lastSeq = tok.Seq
	})
	k := des.NewKernel()
	inst, err := n.Instantiate(k)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	if count != 20 {
		t.Fatalf("consumer saw %d tokens, want 20", count)
	}
	// Consumer read 1 preloaded token plus 19 produced ones.
	if lastSeq != 19 {
		t.Errorf("last seq = %d, want 19", lastSeq)
	}
	if inst.FIFOs["FP"].Writes() == 0 {
		t.Error("producer FIFO never written")
	}
}

func TestInstantiateInvalidNetwork(t *testing.T) {
	bad := testNet(nil)
	bad.Chans[0].Capacity = 0
	if _, err := bad.Instantiate(des.NewKernel()); err == nil {
		t.Error("instantiating an invalid network should fail")
	}
}

func TestTransferDelayOnSCC(t *testing.T) {
	chip, _ := scc.New(scc.DefaultConfig())
	k := des.NewKernel()
	f := NewFIFO(k, "c", 2)
	port := WithTransfer(f, chip, chip.Core(0), chip.Core(47), 0)
	var wrote des.Time
	k.Spawn("w", 0, func(p *des.Proc) {
		port.Write(p, Token{Seq: 1, Payload: make([]byte, 10*1024)})
		wrote = p.Now()
	})
	k.Run(0)
	want := chip.TransferTime(chip.Core(0), chip.Core(47), 10*1024)
	if wrote != want {
		t.Errorf("write completed at %d, want transfer time %d", wrote, want)
	}
	if port.PortName() != "c" {
		t.Errorf("PortName = %q, want c", port.PortName())
	}
}

func TestTransferFallbackBytes(t *testing.T) {
	chip, _ := scc.New(scc.DefaultConfig())
	k := des.NewKernel()
	f := NewFIFO(k, "c", 2)
	port := WithTransfer(f, chip, chip.Core(0), chip.Core(2), 4096)
	var wrote des.Time
	k.Spawn("w", 0, func(p *des.Proc) {
		port.Write(p, Token{Seq: 1}) // no payload: fallback size applies
		wrote = p.Now()
	})
	k.Run(0)
	want := chip.TransferTime(chip.Core(0), chip.Core(2), 4096)
	if wrote != want {
		t.Errorf("write completed at %d, want %d", wrote, want)
	}
}

func TestDOTAndSummary(t *testing.T) {
	n := testNet(nil)
	dot := n.DOT()
	for _, want := range []string{"digraph", `"P"`, `"W"`, `"C"`, "FP", "FC"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	sum := n.Summary()
	if !strings.Contains(sum, "role=critical") || !strings.Contains(sum, "cap=4") {
		t.Errorf("Summary missing fields:\n%s", sum)
	}
}

func TestRoleString(t *testing.T) {
	if RoleProducer.String() != "producer" || RoleCritical.String() != "critical" ||
		RoleConsumer.String() != "consumer" || Role(9).String() != "Role(9)" {
		t.Error("Role.String broken")
	}
}

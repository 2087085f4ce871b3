package kpn

import (
	"fmt"
	"sort"
	"strings"

	"ftpn/internal/des"
)

// Role classifies a process for the fault-tolerance transform: producers
// and consumers run on reliable hardware and are never replicated, while
// the critical subnetwork is what gets duplicated (paper §1.1).
type Role int

const (
	// RoleProducer feeds tokens into the critical subnetwork.
	RoleProducer Role = iota
	// RoleCritical is part of the critical subnetwork (replicated).
	RoleCritical
	// RoleConsumer consumes tokens from the critical subnetwork.
	RoleConsumer
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleProducer:
		return "producer"
	case RoleCritical:
		return "critical"
	case RoleConsumer:
		return "consumer"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// ProcessSpec declares one process of a network. New builds the process
// behavior for a given replica index: 0 is the reference instance, 1 and
// 2 are the diversified replicas (the paper expresses design diversity
// as different jitter values per replica, Table 1).
type ProcessSpec struct {
	Name string
	Role Role
	New  func(replica int) Behavior
}

// ChannelSpec declares one FIFO channel of a network.
type ChannelSpec struct {
	Name     string
	From, To string // process names
	Capacity int
	// InitialTokens pre-fills the channel to implement eq. 4's F_{C,0};
	// preloaded tokens carry non-positive Seq values so equivalence
	// checks can distinguish them from produced tokens.
	InitialTokens int
	// TokenBytes is the nominal payload size used for SCC transfer-time
	// modeling when tokens carry no real payload.
	TokenBytes int
}

// Network is a declarative process-network graph. It can be instantiated
// onto a simulation kernel directly (the reference network) or passed to
// the ft package's duplication transform.
type Network struct {
	Name  string
	Procs []ProcessSpec
	Chans []ChannelSpec
}

// Validate checks structural soundness: unique non-empty names, channel
// endpoints that exist, positive capacities, and initial fills within
// capacity.
func (n *Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("kpn: network needs a name")
	}
	procs := make(map[string]bool)
	for _, p := range n.Procs {
		if p.Name == "" {
			return fmt.Errorf("kpn: network %q has an unnamed process", n.Name)
		}
		if procs[p.Name] {
			return fmt.Errorf("kpn: duplicate process name %q", p.Name)
		}
		if p.New == nil {
			return fmt.Errorf("kpn: process %q has no behavior factory", p.Name)
		}
		procs[p.Name] = true
	}
	chans := make(map[string]bool)
	for _, c := range n.Chans {
		if c.Name == "" {
			return fmt.Errorf("kpn: network %q has an unnamed channel", n.Name)
		}
		if chans[c.Name] {
			return fmt.Errorf("kpn: duplicate channel name %q", c.Name)
		}
		chans[c.Name] = true
		if !procs[c.From] {
			return fmt.Errorf("kpn: channel %q writes from unknown process %q", c.Name, c.From)
		}
		if !procs[c.To] {
			return fmt.Errorf("kpn: channel %q reads into unknown process %q", c.Name, c.To)
		}
		if c.Capacity <= 0 {
			return fmt.Errorf("kpn: channel %q capacity must be positive, got %d", c.Name, c.Capacity)
		}
		if c.InitialTokens < 0 || c.InitialTokens > c.Capacity {
			return fmt.Errorf("kpn: channel %q initial fill %d outside [0,%d]", c.Name, c.InitialTokens, c.Capacity)
		}
	}
	return nil
}

// Proc returns the spec of the named process, or nil.
func (n *Network) Proc(name string) *ProcessSpec {
	for i := range n.Procs {
		if n.Procs[i].Name == name {
			return &n.Procs[i]
		}
	}
	return nil
}

// Inputs returns the channels read by the named process, in declaration
// order (the order behaviors receive their ports in).
func (n *Network) Inputs(name string) []ChannelSpec {
	var out []ChannelSpec
	for _, c := range n.Chans {
		if c.To == name {
			out = append(out, c)
		}
	}
	return out
}

// Outputs returns the channels written by the named process.
func (n *Network) Outputs(name string) []ChannelSpec {
	var out []ChannelSpec
	for _, c := range n.Chans {
		if c.From == name {
			out = append(out, c)
		}
	}
	return out
}

// Instance is an instantiated network: live FIFOs and spawned processes
// on a kernel.
type Instance struct {
	Net   *Network
	K     *des.Kernel
	FIFOs map[string]*FIFO
}

// Instantiate builds the network's FIFOs, binds ports and spawns every
// process's reference behavior (replica 0) at time 0.
func (n *Network) Instantiate(k *des.Kernel) (*Instance, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	inst := &Instance{Net: n, K: k, FIFOs: make(map[string]*FIFO)}

	for _, c := range n.Chans {
		f := NewFIFO(k, c.Name, c.Capacity)
		inst.FIFOs[c.Name] = f
		if c.InitialTokens > 0 {
			toks := make([]Token, c.InitialTokens)
			for i := range toks {
				toks[i] = Token{Seq: int64(i) - int64(c.InitialTokens) + 1} // ..., -1, 0
			}
			f.Preload(toks)
		}
	}

	for _, ps := range n.Procs {
		behavior := ps.New(0)
		var ins []ReadPort
		for _, c := range n.Inputs(ps.Name) {
			ins = append(ins, inst.FIFOs[c.Name])
		}
		var outs []WritePort
		for _, c := range n.Outputs(ps.Name) {
			outs = append(outs, inst.FIFOs[c.Name])
		}
		Spawn(k, ps.Name, behavior, ins, outs)
	}
	return inst, nil
}

// DOT renders the network as a Graphviz digraph, used by cmd/ftpntopo to
// reproduce the paper's Figure 1 and Figure 2 structure.
func (n *Network) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", n.Name)
	for _, p := range n.Procs {
		shape := "box"
		if p.Role == RoleCritical {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  %q [shape=%s,label=\"%s\\n(%s)\"];\n", p.Name, shape, p.Name, p.Role)
	}
	for _, c := range n.Chans {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s cap=%d\"];\n", c.From, c.To, c.Name, c.Capacity)
	}
	b.WriteString("}\n")
	return b.String()
}

// Summary renders a sorted one-line-per-element ASCII description.
func (n *Network) Summary() string {
	var lines []string
	for _, p := range n.Procs {
		lines = append(lines, fmt.Sprintf("proc %-24s role=%s", p.Name, p.Role))
	}
	for _, c := range n.Chans {
		lines = append(lines, fmt.Sprintf("chan %-24s %s -> %s cap=%d init=%d tokB=%d",
			c.Name, c.From, c.To, c.Capacity, c.InitialTokens, c.TokenBytes))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

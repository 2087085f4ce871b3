package ft

import (
	"fmt"
	"strings"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/kpn"
	"ftpn/internal/scc"
)

// BuildConfig parameterizes the duplication transform. All maps are
// keyed by channel name of the reference network; entries are optional —
// missing capacities default to the reference channel's Capacity on both
// sides and missing initial fills to its InitialTokens.
type BuildConfig struct {
	// ReplicatorCaps gives (|R_1|, |R_2|) for each producer→critical
	// channel (eq. 3).
	ReplicatorCaps map[string][2]int
	// ReplicatorD gives the read-divergence threshold for a replicator;
	// 0 or missing disables it.
	ReplicatorD map[string]int64
	// SelectorCaps gives (|S_1|, |S_2|) for each critical→consumer
	// channel.
	SelectorCaps map[string][2]int
	// SelectorInits gives (|S_1|_0, |S_2|_0), the initial tokens of
	// eq. 4.
	SelectorInits map[string][2]int
	// SelectorD gives the divergence threshold D of eq. 5; 0 or missing
	// disables divergence detection on that selector.
	SelectorD map[string]int64

	// Policy selects the detection policy instantiated on every
	// arbitration channel (one stateful instance per channel). The zero
	// value keeps the paper's inline first-violation path bit-for-bit.
	Policy PolicySpec
	// ValueCheck installs replay-based value cross-checks on selector
	// channels, keyed by channel name (see Selector.SetValueCheck).
	ValueCheck map[string]ValueCheck

	// Chip, when non-nil, places every process on its own SCC tile and
	// charges message-passing latency on inter-tile channel operations.
	// The replicator is hosted on the producer's tile and the selector
	// on the consumer's tile (both run on reliable hardware, §2).
	Chip *scc.Chip
}

// System is an instantiated duplicated process network: the reference
// network's critical subnetwork cloned into two diversified replicas,
// joined by replicator and selector channels per Figure 1.
type System struct {
	K           *des.Kernel
	Net         *kpn.Network
	Replicators map[string]*Replicator
	Selectors   map[string]*Selector
	// FIFOs holds the per-replica internal channels, keyed "name#1",
	// "name#2", plus any channels between non-critical processes.
	FIFOs map[string]*kpn.FIFO
	// Switches are the per-replica fault injectors (index 0 = R_1).
	Switches [2]*fault.Switch
	// Cores maps instantiated process names to their SCC cores when a
	// chip was configured.
	Cores map[string]*scc.Core
	// Faults records every detection event in order.
	Faults []Fault

	faultHooks []FaultHandler
}

// AddFaultHook registers an observer of detection events after Build.
// Hooks run in registration order, after the event is appended to
// Faults; recovery managers use one to react to convictions, and the
// examples print convictions with one.
func (sys *System) AddFaultHook(fn FaultHandler) {
	sys.faultHooks = append(sys.faultHooks, fn)
}

// Build instantiates the duplicated network for the given reference
// network onto the kernel. The reference network must have at least one
// critical process; channels are transformed by the roles of their
// endpoints: non-critical→critical becomes a replicator,
// critical→non-critical a selector, critical→critical a per-replica
// FIFO pair, and non-critical→non-critical stays a plain FIFO.
func Build(k *des.Kernel, net *kpn.Network, cfg BuildConfig) (*System, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	roles := make(map[string]kpn.Role)
	numCritical := 0
	for _, p := range net.Procs {
		roles[p.Name] = p.Role
		if p.Role == kpn.RoleCritical {
			numCritical++
		}
	}
	if numCritical == 0 {
		return nil, fmt.Errorf("ft: network %q has no critical subnetwork to duplicate", net.Name)
	}
	for _, c := range net.Chans {
		if roles[c.From] == kpn.RoleCritical && roles[c.To] != kpn.RoleCritical && roles[c.To] != kpn.RoleConsumer {
			return nil, fmt.Errorf("ft: channel %q leaves the critical subnetwork into role %s; only consumers may read replica outputs",
				c.Name, roles[c.To])
		}
	}

	sys := &System{
		K:           k,
		Net:         net,
		Replicators: make(map[string]*Replicator),
		Selectors:   make(map[string]*Selector),
		FIFOs:       make(map[string]*kpn.FIFO),
		Cores:       make(map[string]*scc.Core),
	}
	sys.Switches[0] = fault.NewSwitch(k)
	sys.Switches[1] = fault.NewSwitch(k)
	// Validate the policy spec once; instantiation below is per channel
	// (policies are stateful sliding windows).
	if _, err := NewPolicy(cfg.Policy); err != nil {
		return nil, err
	}
	newPolicy := func() Policy {
		p, _ := NewPolicy(cfg.Policy)
		return p
	}
	record := func(f Fault) {
		sys.Faults = append(sys.Faults, f)
		for _, fn := range sys.faultHooks {
			fn(f)
		}
	}

	// Placement: non-critical processes in declaration order, then the
	// two replica copies of each critical process.
	var placedNames []string
	for _, p := range net.Procs {
		if p.Role == kpn.RoleCritical {
			placedNames = append(placedNames, p.Name+"#1", p.Name+"#2")
		} else {
			placedNames = append(placedNames, p.Name)
		}
	}
	if cfg.Chip != nil {
		cores, err := cfg.Chip.MapPipeline(len(placedNames))
		if err != nil {
			return nil, err
		}
		for i, n := range placedNames {
			sys.Cores[n] = cores[i]
		}
	}

	// Channels.
	for _, c := range net.Chans {
		fromCrit := roles[c.From] == kpn.RoleCritical
		toCrit := roles[c.To] == kpn.RoleCritical
		switch {
		case !fromCrit && toCrit: // replicator
			caps, ok := cfg.ReplicatorCaps[c.Name]
			if !ok {
				caps = [2]int{c.Capacity, c.Capacity}
			}
			r := NewReplicator(k, c.Name, caps, record)
			if d, ok := cfg.ReplicatorD[c.Name]; ok {
				r.DReads = d
			}
			r.SetPolicy(newPolicy())
			sys.Replicators[c.Name] = r
		case fromCrit && !toCrit: // selector
			caps, ok := cfg.SelectorCaps[c.Name]
			if !ok {
				caps = [2]int{c.Capacity, c.Capacity}
			}
			inits, ok := cfg.SelectorInits[c.Name]
			if !ok {
				inits = [2]int{c.InitialTokens, c.InitialTokens}
			}
			s := NewSelector(k, c.Name, caps, inits, cfg.SelectorD[c.Name], nil, record)
			s.SetPolicy(newPolicy())
			if vc := cfg.ValueCheck[c.Name]; vc != nil {
				s.SetValueCheck(vc)
			}
			sys.Selectors[c.Name] = s
		case fromCrit && toCrit: // duplicated internal FIFO
			for r := 1; r <= 2; r++ {
				name := fmt.Sprintf("%s#%d", c.Name, r)
				f := kpn.NewFIFO(k, name, c.Capacity)
				if c.InitialTokens > 0 {
					toks := make([]kpn.Token, c.InitialTokens)
					for i := range toks {
						toks[i] = kpn.Token{Seq: int64(i) - int64(c.InitialTokens) + 1}
					}
					f.Preload(toks)
				}
				sys.FIFOs[name] = f
			}
		default: // plain channel between reliable processes
			f := kpn.NewFIFO(k, c.Name, c.Capacity)
			sys.FIFOs[c.Name] = f
		}
	}

	// Processes.
	for _, ps := range net.Procs {
		if ps.Role == kpn.RoleCritical {
			for r := 1; r <= 2; r++ {
				if err := sys.spawnCritical(net, ps, r, cfg); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := sys.spawnReliable(net, ps, cfg); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// spawnCritical instantiates replica r (1 or 2) of a critical process,
// gating its boundary ports with the replica's fault switch.
func (sys *System) spawnCritical(net *kpn.Network, ps kpn.ProcessSpec, r int, cfg BuildConfig) error {
	name := fmt.Sprintf("%s#%d", ps.Name, r)
	sw := sys.Switches[r-1]
	core := sys.Cores[name]

	var ins []kpn.ReadPort
	for _, c := range net.Inputs(ps.Name) {
		if rep, ok := sys.Replicators[c.Name]; ok {
			port := rep.ReaderPort(r)
			if cfg.Chip != nil {
				// The replicator lives on the producer's tile.
				host := sys.Cores[c.From]
				port = kpn.WithReadTransfer(port, cfg.Chip, host, core, c.TokenBytes)
			}
			ins = append(ins, fault.GateRead(port, sw))
			continue
		}
		f, ok := sys.FIFOs[fmt.Sprintf("%s#%d", c.Name, r)]
		if !ok {
			return fmt.Errorf("ft: internal channel %s#%d missing", c.Name, r)
		}
		ins = append(ins, f) // internal reads stay ungated: faults hit interfaces
	}

	var outs []kpn.WritePort
	for _, c := range net.Outputs(ps.Name) {
		if sel, ok := sys.Selectors[c.Name]; ok {
			var port kpn.WritePort = sel.WriterPort(r)
			if cfg.Chip != nil {
				// The selector lives on the consumer's tile.
				host := sys.Cores[c.To]
				port = kpn.WithTransfer(port, cfg.Chip, core, host, c.TokenBytes)
			}
			outs = append(outs, fault.GateWrite(port, sw))
			continue
		}
		f, ok := sys.FIFOs[fmt.Sprintf("%s#%d", c.Name, r)]
		if !ok {
			return fmt.Errorf("ft: internal channel %s#%d missing", c.Name, r)
		}
		var port kpn.WritePort = f
		if cfg.Chip != nil {
			port = kpn.WithTransfer(port, cfg.Chip, core, sys.Cores[fmt.Sprintf("%s#%d", c.To, r)], c.TokenBytes)
		}
		outs = append(outs, port)
	}

	behavior := ps.New(r)
	kpn.Spawn(sys.K, name, behavior, ins, outs)
	return nil
}

// spawnReliable instantiates a producer or consumer process once,
// binding producer outputs to replicator write ports and consumer inputs
// to selector read ports.
func (sys *System) spawnReliable(net *kpn.Network, ps kpn.ProcessSpec, cfg BuildConfig) error {
	core := sys.Cores[ps.Name]
	var ins []kpn.ReadPort
	for _, c := range net.Inputs(ps.Name) {
		if sel, ok := sys.Selectors[c.Name]; ok {
			// Selector is hosted on this consumer's tile: local read.
			ins = append(ins, sel.ReaderPort())
			continue
		}
		f, ok := sys.FIFOs[c.Name]
		if !ok {
			return fmt.Errorf("ft: channel %q missing for process %q", c.Name, ps.Name)
		}
		ins = append(ins, f)
	}
	var outs []kpn.WritePort
	for _, c := range net.Outputs(ps.Name) {
		if rep, ok := sys.Replicators[c.Name]; ok {
			// Replicator is hosted on this producer's tile: local write.
			outs = append(outs, rep.WriterPort())
			continue
		}
		f, ok := sys.FIFOs[c.Name]
		if !ok {
			return fmt.Errorf("ft: channel %q missing for process %q", c.Name, ps.Name)
		}
		var port kpn.WritePort = f
		if cfg.Chip != nil {
			// The reader of a plain channel is always non-critical here:
			// writes into the critical subnetwork go through replicators.
			port = kpn.WithTransfer(port, cfg.Chip, core, sys.Cores[c.To], c.TokenBytes)
		}
		outs = append(outs, port)
	}
	behavior := ps.New(0)
	kpn.Spawn(sys.K, ps.Name, behavior, ins, outs)
	return nil
}

// InjectFault schedules a timing fault on replica r (1-based) at virtual
// time t. extraUs is the per-operation delay of fault.Degrade and
// fault.Drift; the other gray modes need the switch's InjectAt.
func (sys *System) InjectFault(replica int, t des.Time, mode fault.Mode, extraUs des.Time) {
	if replica < 1 || replica > 2 {
		panic(fmt.Sprintf("ft: replica %d out of range {1,2}", replica))
	}
	sys.Switches[replica-1].InjectAt(t, mode, fault.Gray{ExtraUs: extraUs})
}

// FirstFault returns the earliest detection event for replica r
// (1-based) across all channels, and whether one exists.
func (sys *System) FirstFault(replica int) (Fault, bool) {
	for _, f := range sys.Faults {
		if f.Replica == replica {
			return f, true
		}
	}
	return Fault{}, false
}

// FalsePositives returns detection events for replicas that never had a
// fault injected.
func (sys *System) FalsePositives() []Fault {
	var out []Fault
	for _, f := range sys.Faults {
		if _, injected := sys.Switches[f.Replica-1].InjectedAt(); !injected {
			out = append(out, f)
		}
	}
	return out
}

// DOT renders the duplicated topology (the lower half of the paper's
// Figure 1) as a Graphviz digraph.
func (sys *System) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", sys.Net.Name+"-duplicated")
	roles := make(map[string]kpn.Role)
	for _, p := range sys.Net.Procs {
		roles[p.Name] = p.Role
		if p.Role == kpn.RoleCritical {
			fmt.Fprintf(&b, "  %q [shape=ellipse];\n  %q [shape=ellipse];\n", p.Name+"#1", p.Name+"#2")
		} else {
			fmt.Fprintf(&b, "  %q [shape=box];\n", p.Name)
		}
	}
	for _, c := range sys.Net.Chans {
		fromCrit := roles[c.From] == kpn.RoleCritical
		toCrit := roles[c.To] == kpn.RoleCritical
		switch {
		case !fromCrit && toCrit:
			fmt.Fprintf(&b, "  %q [shape=diamond,label=\"replicator %s\"];\n", c.Name, c.Name)
			fmt.Fprintf(&b, "  %q -> %q;\n  %q -> %q;\n  %q -> %q;\n",
				c.From, c.Name, c.Name, c.To+"#1", c.Name, c.To+"#2")
		case fromCrit && !toCrit:
			fmt.Fprintf(&b, "  %q [shape=diamond,label=\"selector %s\"];\n", c.Name, c.Name)
			fmt.Fprintf(&b, "  %q -> %q;\n  %q -> %q;\n  %q -> %q;\n",
				c.From+"#1", c.Name, c.From+"#2", c.Name, c.Name, c.To)
		case fromCrit && toCrit:
			fmt.Fprintf(&b, "  %q -> %q;\n  %q -> %q;\n",
				c.From+"#1", c.To+"#1", c.From+"#2", c.To+"#2")
		default:
			fmt.Fprintf(&b, "  %q -> %q;\n", c.From, c.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

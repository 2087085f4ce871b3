// Package topo is the declarative topology/scenario layer: a JSON
// schema (Spec) that compiles onto the existing kpn.Network graph plus
// conservative RTC envelopes for the ft duplication transform, and a
// seeded random-topology generator (gen.go) producing chains, trees,
// diamonds, fan-in selectors and feedback loops with deterministic
// synthetic process bodies.
//
// The paper's guarantees — divergence-bound sizing (eqs. 3–8), Lemma 1
// isolation, the detection-latency bounds — were previously only
// machine-checked on the four hand-wired apps in internal/apps. A Spec
// describes a network as data: processes with <period, jitter, delay>
// envelopes, channels with capacities, initial tokens and token sizes,
// the critical subnetwork to duplicate, a fault script (internal/fault,
// including the gray-failure library), and a detection PolicySpec.
// Compile turns a Spec into a Model whose Build method instantiates a
// fresh kpn.Network with deterministic behaviors: every synthetic stage
// payload is a pure function of the stream index and the (equally pure)
// input payloads, so golden-stream identity checks — the backbone
// invariant of every experiment harness — keep working on generated
// networks. The topobench harness in internal/exp property-checks
// sizing, Lemma 1 and the (m,k) detection bounds over thousands of
// generated Specs.
package topo

import (
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

// Process roles (ProcSpec.Role). They mirror kpn.Role's String names.
const (
	RoleProducer = "producer"
	RoleCritical = "critical"
	RoleConsumer = "consumer"
)

// Critical-process kinds (ProcSpec.Kind).
const (
	// KindStage (the default, "") is a synthetic transform: each firing
	// reads one token from every input, computes for its work model,
	// and writes one token — whose payload is a pure deterministic
	// function of the stream index and the input payloads — to every
	// output. A stage with several outputs is a fork; with several
	// inputs, a join.
	KindStage = "stage"
	// KindSelect is a synthetic fan-in selector: each firing reads one
	// token from every input and forwards the payload of input
	// (firing mod #inputs) unchanged — deterministic arbitration that
	// keeps the stream rate and golden identity intact.
	KindSelect = "select"
	// KindExtern marks a process whose behavior is supplied at compile
	// time (Compile's WithExtern option) instead of synthesized — how a
	// hand-written app round-trips through the DSL. A spec with any
	// extern process must be all-extern and carry explicit Envelopes.
	KindExtern = "extern"
)

// Spec is the declarative description of one network plus its
// fault-tolerance scenario. It is the unit the JSON parser reads
// and the generator emits. All durations are virtual-time microseconds.
type Spec struct {
	Name string `json:"name"`
	// Tokens is the finite workload length (producer emissions).
	Tokens int64 `json:"tokens"`
	// Replicas is the duplication width of the critical subnetwork.
	// 0 means the default (2); the paper's transform — and this DSL —
	// supports exactly 2.
	Replicas int `json:"replicas,omitempty"`
	// SlackUs pads the analytic input/output envelopes beyond the
	// synthesized worst-case latency (safety margin, like the apps'
	// +5ms). 0 means period/8.
	SlackUs int64 `json:"slack_us,omitempty"`
	// Shape and Scenario are free-form labels the generator stamps
	// ("chain", "diamond", …; "stop", "corrupt", …) so reports can
	// bucket results; they carry no semantics.
	Shape    string `json:"shape,omitempty"`
	Scenario string `json:"scenario,omitempty"`

	Procs []ProcSpec `json:"procs"`
	Chans []ChanSpec `json:"chans"`

	// Envelopes overrides the synthesized replica envelopes — required
	// for (and only allowed with) extern specs, where no work models
	// exist to derive them from.
	Envelopes *EnvelopeSpec `json:"envelopes,omitempty"`
	// Detection selects the conviction policy (nil/zero = the paper's
	// inline first-violation path).
	Detection *ft.PolicySpec `json:"detection,omitempty"`
	// Faults is the injection script applied to the duplicated system.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// ProcSpec declares one process. Which fields apply depends on Role:
// producers and consumers are paced by their <period, jitter, min_dist>
// PJD model; critical stages carry a work model (base + per-KB +
// per-replica jitter). Every process has a Seed feeding its private
// deterministic RNG.
type ProcSpec struct {
	Name string `json:"name"`
	Role string `json:"role"`
	// Kind refines critical processes (stage/select/extern); see the
	// Kind constants. Empty means stage for critical processes.
	Kind string `json:"kind,omitempty"`
	Seed int64  `json:"seed,omitempty"`

	// Producer/consumer pacing (rtc.PJD).
	PeriodUs  int64 `json:"period_us,omitempty"`
	JitterUs  int64 `json:"jitter_us,omitempty"`
	MinDistUs int64 `json:"min_dist_us,omitempty"`

	// PayloadBytes is the output payload size of a producer or stage.
	PayloadBytes int `json:"payload_bytes,omitempty"`

	// Critical work model (kpn.WorkModel): BaseUs + PerKBUs per input
	// kilobyte + uniform jitter in [0, ReplicaJitterUs[r-1]] — the
	// paper's "design diversity captured by different jitter values"
	// (Table 1). A short list repeats its last entry for higher
	// replicas; empty means zero jitter.
	BaseUs          int64   `json:"base_us,omitempty"`
	PerKBUs         int64   `json:"per_kb_us,omitempty"`
	ReplicaJitterUs []int64 `json:"replica_jitter_us,omitempty"`
}

// ChanSpec declares one bounded FIFO channel.
type ChanSpec struct {
	Name string `json:"name"`
	From string `json:"from"`
	To   string `json:"to"`
	// Cap is the bounded capacity (eq. 3 F_C for boundary channels).
	Cap int `json:"cap"`
	// Init pre-fills the channel (eq. 4 F_{C,0}); a feedback channel
	// needs Init >= 1 to avoid deadlock (kpn.DeadlockRisks).
	Init int `json:"init,omitempty"`
	// TokenBytes is the nominal token size for transfer-time modeling
	// and envelope math; 0 defers to the writing process's
	// payload_bytes.
	TokenBytes int `json:"token_bytes,omitempty"`
}

// EnvelopeSpec pins the per-replica input/output arrival-curve jitters
// used for sizing, one entry per replica (1-based; a short list repeats
// its last entry). The period is the producer's.
type EnvelopeSpec struct {
	InJitterUs  []int64 `json:"in_jitter_us"`
	OutJitterUs []int64 `json:"out_jitter_us"`
}

// FaultSpec is one scripted injection against a replica of the
// duplicated system (fault.Switch.InjectAt).
type FaultSpec struct {
	// Replica is the 1-based target replica.
	Replica int `json:"replica"`
	// AtUs is the virtual injection instant.
	AtUs int64 `json:"at_us"`
	// Mode is the canonical fault mode name ("stop-all",
	// "stop-consuming", "stop-producing", "degrade", "drift", "burst",
	// "drop-tokens", "corrupt" — fault.ModeByName).
	Mode string `json:"mode"`
	// ExtraUs parameterizes degrade (fixed extra delay) and drift (ramp
	// target).
	ExtraUs int64 `json:"extra_us,omitempty"`
	// Gray parameters (internal/fault.Gray).
	RampUs   int64  `json:"ramp_us,omitempty"`
	OnUs     int64  `json:"on_us,omitempty"`
	PeriodUs int64  `json:"period_us,omitempty"`
	EveryN   int    `json:"every_n,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// RepairAtUs, when positive, repairs the switch at that instant —
	// the fault is a transient.
	RepairAtUs int64 `json:"repair_at_us,omitempty"`
}

// DefaultReplicas is the duplication width the paper's transform uses.
const DefaultReplicas = 2

// replicas returns the effective duplication width.
func (s *Spec) replicas() int {
	if s.Replicas == 0 {
		return DefaultReplicas
	}
	return s.Replicas
}

// slackUs returns the effective envelope slack.
func (s *Spec) slackUs(periodUs int64) int64 {
	if s.SlackUs > 0 {
		return s.SlackUs
	}
	return periodUs / 8
}

// roleOf maps a role string to the kpn role.
func roleOf(role string) (kpn.Role, bool) {
	switch role {
	case RoleProducer:
		return kpn.RoleProducer, true
	case RoleCritical:
		return kpn.RoleCritical, true
	case RoleConsumer:
		return kpn.RoleConsumer, true
	}
	return 0, false
}

// Proc returns the named process spec, or nil.
func (s *Spec) Proc(name string) *ProcSpec {
	for i := range s.Procs {
		if s.Procs[i].Name == name {
			return &s.Procs[i]
		}
	}
	return nil
}

// isExtern reports whether the spec binds behaviors externally (all
// processes carry KindExtern; Validate enforces all-or-none).
func (s *Spec) isExtern() bool {
	return len(s.Procs) > 0 && s.Procs[0].Kind == KindExtern
}

// pjd assembles the PJD model of a producer/consumer spec.
func (p *ProcSpec) pjd() rtc.PJD {
	return rtc.PJD{
		Period:  des.Time(p.PeriodUs),
		Jitter:  des.Time(p.JitterUs),
		MinDist: des.Time(p.MinDistUs),
	}
}

// replicaJitter returns the work-model jitter for 1-based replica r: the
// r-th entry of ReplicaJitterUs, with a short list repeating its last.
func (p *ProcSpec) replicaJitter(r int) des.Time {
	if len(p.ReplicaJitterUs) == 0 {
		return 0
	}
	i := r - 1
	if i >= len(p.ReplicaJitterUs) {
		i = len(p.ReplicaJitterUs) - 1
	}
	if i < 0 {
		i = 0
	}
	return des.Time(p.ReplicaJitterUs[i])
}

// Validate checks the spec end to end: structural soundness of the
// graph (delegating channel-level checks to kpn.Network.Validate on a
// skeleton), role wiring the ft transform accepts (one producer, one
// consumer, a non-empty critical subnetwork, single entry and exit
// boundary channels), per-role field constraints, deadlock-free cycles
// (every feedback loop carries initial tokens — kpn.DeadlockRisks), a
// well-formed detection policy, and a well-formed fault script.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("topo: spec needs a name")
	}
	if s.Tokens < 1 {
		return fmt.Errorf("topo: spec %q needs tokens >= 1, got %d", s.Name, s.Tokens)
	}
	if s.Replicas != 0 && s.Replicas != DefaultReplicas {
		return fmt.Errorf("topo: spec %q: only %d replicas are supported, got %d", s.Name, DefaultReplicas, s.Replicas)
	}
	if s.SlackUs < 0 {
		return fmt.Errorf("topo: spec %q: slack_us must be non-negative, got %d", s.Name, s.SlackUs)
	}
	if len(s.Procs) == 0 {
		return fmt.Errorf("topo: spec %q has no processes", s.Name)
	}

	// Role census + per-role field checks.
	var producer, consumer *ProcSpec
	externs, criticals := 0, 0
	for i := range s.Procs {
		p := &s.Procs[i]
		if err := p.validate(s); err != nil {
			return err
		}
		if p.Kind == KindExtern {
			externs++
		}
		switch p.Role {
		case RoleProducer:
			if producer != nil {
				return fmt.Errorf("topo: spec %q has more than one producer (%q, %q)", s.Name, producer.Name, p.Name)
			}
			producer = p
		case RoleConsumer:
			if consumer != nil {
				return fmt.Errorf("topo: spec %q has more than one consumer (%q, %q)", s.Name, consumer.Name, p.Name)
			}
			consumer = p
		case RoleCritical:
			criticals++
		}
	}
	if producer == nil || consumer == nil || criticals == 0 {
		return fmt.Errorf("topo: spec %q needs exactly one producer, one consumer and a critical subnetwork (have producer=%v consumer=%v criticals=%d)",
			s.Name, producer != nil, consumer != nil, criticals)
	}
	if externs != 0 && externs != len(s.Procs) {
		return fmt.Errorf("topo: spec %q mixes extern and synthetic processes (%d/%d extern); extern specs must be all-extern",
			s.Name, externs, len(s.Procs))
	}
	if externs != 0 {
		if s.Envelopes == nil {
			return fmt.Errorf("topo: extern spec %q needs explicit envelopes", s.Name)
		}
		if len(s.Envelopes.InJitterUs) == 0 || len(s.Envelopes.OutJitterUs) == 0 {
			return fmt.Errorf("topo: extern spec %q: envelopes need at least one in/out jitter entry", s.Name)
		}
	}
	if s.Envelopes != nil {
		for _, j := range append(append([]int64{}, s.Envelopes.InJitterUs...), s.Envelopes.OutJitterUs...) {
			if j < 0 {
				return fmt.Errorf("topo: spec %q: envelope jitters must be non-negative, got %d", s.Name, j)
			}
		}
	}
	if consumer.PeriodUs != producer.PeriodUs {
		return fmt.Errorf("topo: spec %q: consumer period %d != producer period %d (the sizing analysis assumes a single stream rate)",
			s.Name, consumer.PeriodUs, producer.PeriodUs)
	}

	// Channel-level checks on the skeleton network (unique names,
	// endpoints exist, caps, fills).
	skel := s.skeleton()
	if err := skel.Validate(); err != nil {
		return fmt.Errorf("topo: spec %q: %w", s.Name, err)
	}

	// Boundary wiring the ft transform accepts, and per-process port
	// arity for the synthetic behaviors.
	inDeg := map[string]int{}
	outDeg := map[string]int{}
	entry, exit := 0, 0
	for i := range s.Chans {
		c := &s.Chans[i]
		from, to := s.Proc(c.From), s.Proc(c.To)
		inDeg[c.To]++
		outDeg[c.From]++
		switch {
		case to.Role == RoleProducer:
			return fmt.Errorf("topo: spec %q: channel %q feeds back into producer %q", s.Name, c.Name, c.To)
		case from.Role == RoleConsumer:
			return fmt.Errorf("topo: spec %q: channel %q reads out of consumer %q", s.Name, c.Name, c.From)
		case from.Role == RoleProducer && to.Role == RoleCritical:
			entry++
		case from.Role == RoleCritical && to.Role == RoleConsumer:
			exit++
		case from.Role == RoleProducer && to.Role == RoleConsumer:
			return fmt.Errorf("topo: spec %q: channel %q bypasses the critical subnetwork (producer %q -> consumer %q)",
				s.Name, c.Name, c.From, c.To)
		}
		if !s.isExtern() && c.TokenBytes == 0 && from.PayloadBytes == 0 {
			return fmt.Errorf("topo: spec %q: channel %q needs token_bytes (writer %q declares no payload_bytes)",
				s.Name, c.Name, c.From)
		}
	}
	if entry != 1 || exit != 1 {
		return fmt.Errorf("topo: spec %q needs exactly one producer->critical and one critical->consumer channel, got %d/%d",
			s.Name, entry, exit)
	}
	for i := range s.Procs {
		p := &s.Procs[i]
		switch p.Role {
		case RoleProducer:
			if inDeg[p.Name] != 0 || outDeg[p.Name] != 1 {
				return fmt.Errorf("topo: spec %q: producer %q needs 0 inputs and 1 output, got %d/%d",
					s.Name, p.Name, inDeg[p.Name], outDeg[p.Name])
			}
		case RoleConsumer:
			if inDeg[p.Name] != 1 || outDeg[p.Name] != 0 {
				return fmt.Errorf("topo: spec %q: consumer %q needs 1 input and 0 outputs, got %d/%d",
					s.Name, p.Name, inDeg[p.Name], outDeg[p.Name])
			}
		case RoleCritical:
			if inDeg[p.Name] == 0 || outDeg[p.Name] == 0 {
				return fmt.Errorf("topo: spec %q: critical process %q needs at least 1 input and 1 output, got %d/%d",
					s.Name, p.Name, inDeg[p.Name], outDeg[p.Name])
			}
		}
	}

	// Reachability: every process must see the stream (an unreachable
	// stage would block forever and starve any join it feeds).
	if err := s.checkReachable(producer.Name); err != nil {
		return err
	}

	// Every cycle must carry initial tokens (feedback preload), or the
	// network deadlocks on first firing.
	if risks := skel.DeadlockRisks(); len(risks) > 0 {
		return fmt.Errorf("topo: spec %q: cycle %v has no initial tokens (guaranteed deadlock)", s.Name, risks[0].Channels)
	}

	if s.Detection != nil {
		if err := s.Detection.Validate(); err != nil {
			return fmt.Errorf("topo: spec %q: %w", s.Name, err)
		}
	}
	for i := range s.Faults {
		if err := s.Faults[i].validate(s); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one process's fields against its role.
func (p *ProcSpec) validate(s *Spec) error {
	if _, ok := roleOf(p.Role); !ok {
		return fmt.Errorf("topo: spec %q: process %q has unknown role %q", s.Name, p.Name, p.Role)
	}
	switch p.Kind {
	case "", KindExtern:
	case KindStage, KindSelect:
		if p.Role != RoleCritical {
			return fmt.Errorf("topo: spec %q: process %q: kind %q is only valid for critical processes", s.Name, p.Name, p.Kind)
		}
	default:
		return fmt.Errorf("topo: spec %q: process %q has unknown kind %q", s.Name, p.Name, p.Kind)
	}
	if p.Kind == KindExtern {
		// Extern behaviors own their timing; pacing fields are only
		// meaningful on the producer/consumer (for sizing).
		if p.Role != RoleCritical && p.PeriodUs < 1 {
			return fmt.Errorf("topo: spec %q: extern %s %q still needs period_us for the sizing analysis", s.Name, p.Role, p.Name)
		}
		return nil
	}
	switch p.Role {
	case RoleProducer, RoleConsumer:
		if err := p.pjd().Validate(); err != nil {
			return fmt.Errorf("topo: spec %q: process %q: %w", s.Name, p.Name, err)
		}
		if p.BaseUs != 0 || p.PerKBUs != 0 || len(p.ReplicaJitterUs) != 0 {
			return fmt.Errorf("topo: spec %q: %s %q must not carry a critical work model", s.Name, p.Role, p.Name)
		}
		if p.Role == RoleProducer && p.PayloadBytes < 0 {
			return fmt.Errorf("topo: spec %q: producer %q payload_bytes must be non-negative", s.Name, p.Name)
		}
		if p.Role == RoleConsumer && p.PayloadBytes != 0 {
			return fmt.Errorf("topo: spec %q: consumer %q takes no payload_bytes", s.Name, p.Name)
		}
	case RoleCritical:
		if p.PeriodUs != 0 || p.JitterUs != 0 || p.MinDistUs != 0 {
			return fmt.Errorf("topo: spec %q: critical process %q is data-driven and takes no pacing model", s.Name, p.Name)
		}
		if p.BaseUs < 0 || p.PerKBUs < 0 {
			return fmt.Errorf("topo: spec %q: process %q work model must be non-negative", s.Name, p.Name)
		}
		for _, j := range p.ReplicaJitterUs {
			if j < 0 {
				return fmt.Errorf("topo: spec %q: process %q replica jitters must be non-negative", s.Name, p.Name)
			}
		}
		if len(p.ReplicaJitterUs) > DefaultReplicas+1 {
			return fmt.Errorf("topo: spec %q: process %q has %d replica jitters, max %d (reference + replicas)",
				s.Name, p.Name, len(p.ReplicaJitterUs), DefaultReplicas+1)
		}
		if p.Kind == KindSelect && p.PayloadBytes != 0 {
			return fmt.Errorf("topo: spec %q: select %q forwards payloads and takes no payload_bytes", s.Name, p.Name)
		}
		if p.Kind != KindSelect && p.PayloadBytes < 1 {
			return fmt.Errorf("topo: spec %q: stage %q needs payload_bytes >= 1", s.Name, p.Name)
		}
	}
	return nil
}

// validate checks one fault-script entry.
func (f *FaultSpec) validate(s *Spec) error {
	if f.Replica < 1 || f.Replica > s.replicas() {
		return fmt.Errorf("topo: spec %q: fault replica %d outside [1,%d]", s.Name, f.Replica, s.replicas())
	}
	if f.AtUs < 0 {
		return fmt.Errorf("topo: spec %q: fault at_us must be non-negative, got %d", s.Name, f.AtUs)
	}
	mode, ok := fault.ModeByName(f.Mode)
	if !ok || mode == fault.None {
		return fmt.Errorf("topo: spec %q: unknown fault mode %q", s.Name, f.Mode)
	}
	if f.ExtraUs < 0 || f.RampUs < 0 || f.OnUs < 0 || f.PeriodUs < 0 || f.EveryN < 0 {
		return fmt.Errorf("topo: spec %q: fault parameters must be non-negative", s.Name)
	}
	switch mode {
	case fault.Degrade, fault.Drift:
		if f.ExtraUs < 1 {
			return fmt.Errorf("topo: spec %q: %s fault needs extra_us >= 1", s.Name, f.Mode)
		}
	case fault.Burst:
		if f.OnUs < 1 || f.PeriodUs <= f.OnUs {
			return fmt.Errorf("topo: spec %q: burst fault needs 0 < on_us < period_us, got %d/%d", s.Name, f.OnUs, f.PeriodUs)
		}
	case fault.DropTokens, fault.Corrupt:
		if f.EveryN < 1 {
			return fmt.Errorf("topo: spec %q: %s fault needs every_n >= 1", s.Name, f.Mode)
		}
	}
	if f.RepairAtUs != 0 && f.RepairAtUs <= f.AtUs {
		return fmt.Errorf("topo: spec %q: fault repair_at_us %d must follow at_us %d", s.Name, f.RepairAtUs, f.AtUs)
	}
	return nil
}

// skeleton builds a behavior-less kpn.Network mirroring the spec's
// graph, for structural analyses (Validate, Cycles, DeadlockRisks).
// The placeholder factories satisfy kpn.Validate; they are never run.
func (s *Spec) skeleton() *kpn.Network {
	net := &kpn.Network{Name: s.Name}
	for _, p := range s.Procs {
		role, _ := roleOf(p.Role)
		net.Procs = append(net.Procs, kpn.ProcessSpec{
			Name: p.Name,
			Role: role,
			New:  func(int) kpn.Behavior { return nil },
		})
	}
	for _, c := range s.Chans {
		net.Chans = append(net.Chans, kpn.ChannelSpec{
			Name:          c.Name,
			From:          c.From,
			To:            c.To,
			Capacity:      c.Cap,
			InitialTokens: c.Init,
			TokenBytes:    c.TokenBytes,
		})
	}
	return net
}

// Skeleton exposes the behavior-less graph for structural tooling
// (cycle enumeration, DOT layout experiments). Mutating the result does
// not affect the spec.
func (s *Spec) Skeleton() *kpn.Network { return s.skeleton() }

// checkReachable walks forward from the producer over all channels and
// reports the first process the stream can never reach.
func (s *Spec) checkReachable(from string) error {
	adj := map[string][]string{}
	for _, c := range s.Chans {
		adj[c.From] = append(adj[c.From], c.To)
	}
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	for i := range s.Procs {
		if !seen[s.Procs[i].Name] {
			return fmt.Errorf("topo: spec %q: process %q is unreachable from producer %q", s.Name, s.Procs[i].Name, from)
		}
	}
	return nil
}

package topo

import (
	"fmt"
	"hash/fnv"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

// Sink receives consumer tokens, mirroring internal/apps.Sink so a
// compiled Model slots into the experiment harnesses unchanged.
type Sink func(now des.Time, tok kpn.Token)

// CompileOption configures Compile.
type CompileOption func(*compileConfig)

type compileConfig struct {
	extern map[string]func(replica int) kpn.Behavior
}

// WithExtern binds behavior factories to the named processes of an
// extern spec (ProcSpec.Kind == KindExtern) — the factories of the
// original hand-written network, keyed by process name. This is how a
// paper app round-trips through the DSL: Describe the built network,
// emit/parse the spec, Compile it with the original factories, and the
// rebuilt network is behavior-identical.
func WithExtern(factories map[string]func(replica int) kpn.Behavior) CompileOption {
	return func(cfg *compileConfig) { cfg.extern = factories }
}

// Model is a compiled Spec: the graph plus everything the ft transform
// and the sizing analysis need — boundary channel names, token sizes,
// producer/consumer PJD models and conservative per-replica envelopes.
// Build instantiates a fresh kpn.Network on every call; all builds of
// one Model share its payload memo, so replicas (and repeated runs)
// reuse the deterministic payload pipeline.
type Model struct {
	Spec *Spec
	Memo *kpn.PayloadMemo

	// InChan/OutChan are the single producer->critical and
	// critical->consumer boundary channels the ft transform arbitrates.
	InChan, OutChan string
	// InTokenBytes/OutTokenBytes are the effective token sizes on the
	// boundary channels; OutInit is the exit channel's initial fill.
	InTokenBytes, OutTokenBytes int
	OutInit                     int

	producer, consumer *ProcSpec
	extern             map[string]func(replica int) kpn.Behavior
	// chanBytes is the effective token size per channel; inBytes the
	// per-process total input size feeding the work models.
	chanBytes map[string]int
	inBytes   map[string]int
	// latency[r-1] is the summed worst-case critical-path latency for
	// replica r; envelopes add it to the producer jitter.
	latency [DefaultReplicas]des.Time
}

// Compile validates the spec and derives the model. Extern specs need
// WithExtern factories for every process.
func Compile(spec *Spec, opts ...CompileOption) (*Model, error) {
	var cfg compileConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Spec:      spec,
		Memo:      kpn.NewPayloadMemo(),
		extern:    cfg.extern,
		chanBytes: make(map[string]int, len(spec.Chans)),
		inBytes:   make(map[string]int, len(spec.Procs)),
	}
	if spec.isExtern() {
		for i := range spec.Procs {
			if cfg.extern[spec.Procs[i].Name] == nil {
				return nil, fmt.Errorf("topo: extern spec %q: no behavior bound for process %q (WithExtern)",
					spec.Name, spec.Procs[i].Name)
			}
		}
	}

	for i := range spec.Procs {
		p := &spec.Procs[i]
		switch p.Role {
		case RoleProducer:
			m.producer = p
		case RoleConsumer:
			m.consumer = p
		}
	}
	for i := range spec.Chans {
		c := &spec.Chans[i]
		bytes := c.TokenBytes
		if bytes == 0 {
			bytes = spec.Proc(c.From).PayloadBytes
		}
		m.chanBytes[c.Name] = bytes
		m.inBytes[c.To] += bytes
		from, to := spec.Proc(c.From), spec.Proc(c.To)
		if from.Role == RoleProducer && to.Role == RoleCritical {
			m.InChan, m.InTokenBytes = c.Name, bytes
		}
		if from.Role == RoleCritical && to.Role == RoleConsumer {
			m.OutChan, m.OutTokenBytes, m.OutInit = c.Name, bytes, c.Init
		}
	}

	// Worst-case one-token latency through the critical subnetwork per
	// replica: every stage fires once per stream index, so the critical
	// path is bounded by the sum of all stage worst execution times
	// (base + per-KB on the stage's total input bytes + full jitter).
	// This over-covers non-chain shapes — parallel branches sum instead
	// of max — which only inflates the envelopes: larger jitter means
	// larger caps, fills and divergence thresholds, never a false
	// conviction (the safe direction for eqs. 3–8).
	for r := 1; r <= DefaultReplicas; r++ {
		var sum des.Time
		for i := range spec.Procs {
			p := &spec.Procs[i]
			if p.Role != RoleCritical || p.Kind == KindExtern {
				continue
			}
			sum += des.Time(p.BaseUs) + des.Time(p.PerKBUs)*des.Time(m.inBytes[p.Name])/1024 + p.replicaJitter(r)
		}
		m.latency[r-1] = sum
	}
	return m, nil
}

// PeriodUs returns the stream period (producer == consumer by
// validation).
func (m *Model) PeriodUs() des.Time { return des.Time(m.producer.PeriodUs) }

// Tokens returns the workload length.
func (m *Model) Tokens() int64 { return m.Spec.Tokens }

// ProducerModel returns the producer's PJD arrival model.
func (m *Model) ProducerModel() rtc.PJD { return m.producer.pjd() }

// ConsumerModel returns the consumer's PJD service model.
func (m *Model) ConsumerModel() rtc.PJD { return m.consumer.pjd() }

// envJitter resolves one replica's envelope jitter from an explicit
// list (repeat-last, like replicaJitter).
func envJitter(list []int64, r int) des.Time {
	i := r - 1
	if i >= len(list) {
		i = len(list) - 1
	}
	if i < 0 {
		i = 0
	}
	return des.Time(list[i])
}

// InModel returns replica r's input arrival/consumption envelope: the
// producer's period with jitter covering the producer's own jitter plus
// the replica's worst critical-path latency plus the spec slack. With
// explicit Envelopes the declared jitter is used verbatim.
func (m *Model) InModel(r int) rtc.PJD {
	if env := m.Spec.Envelopes; env != nil {
		return rtc.PJD{Period: m.PeriodUs(), Jitter: envJitter(env.InJitterUs, r)}
	}
	return rtc.PJD{Period: m.PeriodUs(), Jitter: m.envelopeJitter(r)}
}

// OutModel returns replica r's output arrival envelope at the selector.
func (m *Model) OutModel(r int) rtc.PJD {
	if env := m.Spec.Envelopes; env != nil {
		return rtc.PJD{Period: m.PeriodUs(), Jitter: envJitter(env.OutJitterUs, r)}
	}
	return rtc.PJD{Period: m.PeriodUs(), Jitter: m.envelopeJitter(r)}
}

// envelopeJitter is the synthesized per-replica envelope jitter.
func (m *Model) envelopeJitter(r int) des.Time {
	if r < 1 {
		r = 1
	}
	if r > DefaultReplicas {
		r = DefaultReplicas
	}
	return des.Time(m.producer.JitterUs) + m.latency[r-1] + des.Time(m.Spec.slackUs(m.producer.PeriodUs))
}

// Build instantiates a fresh kpn.Network from the model. Synthetic
// behaviors are deterministic: producer payloads are a pure function of
// (seed, index), stage payloads a pure function of (seed, index, input
// payloads), so any two builds — replicas within a duplicated system,
// golden vs fault runs — yield bit-identical
// fault-free streams. sink (may be nil) receives the consumer tokens of
// synthetic specs; extern specs carry their own sinks inside the bound
// behaviors and ignore it.
func (m *Model) Build(sink Sink) (*kpn.Network, error) {
	spec := m.Spec
	net := &kpn.Network{Name: spec.Name}
	for i := range spec.Procs {
		p := &spec.Procs[i]
		role, _ := roleOf(p.Role)
		factory, err := m.factory(p, sink)
		if err != nil {
			return nil, err
		}
		net.Procs = append(net.Procs, kpn.ProcessSpec{Name: p.Name, Role: role, New: factory})
	}
	for _, c := range spec.Chans {
		net.Chans = append(net.Chans, kpn.ChannelSpec{
			Name:          c.Name,
			From:          c.From,
			To:            c.To,
			Capacity:      c.Cap,
			InitialTokens: c.Init,
			TokenBytes:    m.chanBytes[c.Name],
		})
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// factory builds the behavior factory for one process.
func (m *Model) factory(p *ProcSpec, sink Sink) (func(replica int) kpn.Behavior, error) {
	if p.Kind == KindExtern {
		f := m.extern[p.Name]
		if f == nil {
			return nil, fmt.Errorf("topo: extern spec %q: no behavior bound for process %q", m.Spec.Name, p.Name)
		}
		return f, nil
	}
	spec := m.Spec
	stageKey := spec.Name + "/" + p.Name
	switch p.Role {
	case RoleProducer:
		gen := m.Memo.Gen(stageKey, producerGen(p.Seed, p.PayloadBytes))
		model, seed, tokens := p.pjd(), p.Seed, spec.Tokens
		return func(int) kpn.Behavior {
			return kpn.Producer(model, seed, tokens, gen)
		}, nil
	case RoleConsumer:
		model, seed, tokens := p.pjd(), p.Seed, spec.Tokens
		return func(int) kpn.Behavior {
			return kpn.Consumer(model, seed, tokens, sink)
		}, nil
	default: // critical stage or select
		base, perKB, seed := des.Time(p.BaseUs), des.Time(p.PerKBUs), p.Seed
		var f func(i int64, ins [][]byte) []byte
		if p.Kind == KindSelect {
			f = selectPayload()
		} else {
			f = stagePayload(p.Seed, p.PayloadBytes)
		}
		memo := m.Memo
		return func(replica int) kpn.Behavior {
			work := kpn.WorkModel{BaseUs: base, PerKBUs: perKB, JitterUs: p.replicaJitter(replica)}
			// Distinct rng streams per replica; payloads stay
			// replica-independent, only timing draws differ.
			return kpn.MemoStage(work, seed+int64(replica)*1000003, memo, stageKey, f)
		}, nil
	}
}

// splitmix64 is the SplitMix64 output mix — a cheap, high-quality
// deterministic byte source for synthetic payloads.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fillPayload fills n deterministic bytes from a 64-bit state.
func fillPayload(n int, state uint64) []byte {
	buf := make([]byte, n)
	var word uint64
	for j := 0; j < n; j++ {
		if j%8 == 0 {
			state = splitmix64(state)
			word = state
		}
		buf[j] = byte(word)
		word >>= 8
	}
	return buf
}

// producerGen returns the producer payload generator: pure in the
// production index.
func producerGen(seed int64, bytes int) func(i int64) []byte {
	if bytes <= 0 {
		return nil
	}
	return func(i int64) []byte {
		return fillPayload(bytes, uint64(seed)^uint64(i)*0xA24BAED4963EE407)
	}
}

// stagePayload returns the synthetic stage payload function: a pure
// deterministic function of (seed, stream index, input payloads). The
// input dependence matters — corruption of an input must change the
// output — and replica independence holds because fault-free inputs are
// themselves pure in the stream index.
func stagePayload(seed int64, bytes int) func(i int64, ins [][]byte) []byte {
	return func(i int64, ins [][]byte) []byte {
		h := fnv.New64a()
		for _, in := range ins {
			h.Write(in) //nolint:errcheck // hash.Hash never errors
		}
		return fillPayload(bytes, uint64(seed)^uint64(i)*0xD6E8FEB86659FD93^h.Sum64())
	}
}

// selectPayload returns the fan-in selector function: forward the
// payload of input (index mod #inputs) unchanged — deterministic
// arbitration keyed by the stream index so it survives stream skew.
func selectPayload() func(i int64, ins [][]byte) []byte {
	return func(i int64, ins [][]byte) []byte {
		n := int64(len(ins))
		idx := i % n
		if idx < 0 {
			idx += n
		}
		return ins[idx]
	}
}

// ApplyFaults arms the spec's fault script on a duplicated system built
// from this model: each fault via the target switch's InjectAt, and
// transients via RepairAt.
func (m *Model) ApplyFaults(sys *ft.System) {
	for i := range m.Spec.Faults {
		f := &m.Spec.Faults[i]
		mode, _ := fault.ModeByName(f.Mode)
		sw := sys.Switches[f.Replica-1]
		sw.InjectAt(des.Time(f.AtUs), mode, fault.Gray{
			ExtraUs:  des.Time(f.ExtraUs),
			RampUs:   des.Time(f.RampUs),
			OnUs:     des.Time(f.OnUs),
			PeriodUs: des.Time(f.PeriodUs),
			EveryN:   f.EveryN,
			Seed:     f.Seed,
		})
		if f.RepairAtUs > 0 {
			sw.RepairAt(des.Time(f.RepairAtUs))
		}
	}
}

// ExternTiming carries the timing facts Describe cannot read off a bare
// kpn.Network: the workload length, the reliable-end PJD models, and
// the per-replica envelope jitters (the values the app's
// ReplicaInput/OutputModel report).
type ExternTiming struct {
	Tokens             int64
	Producer, Consumer rtc.PJD
	InJitterUs         [DefaultReplicas]des.Time
	OutJitterUs        [DefaultReplicas]des.Time
}

// Describe captures an existing hand-wired network as an extern Spec:
// same process and channel declarations (order preserved — port binding
// is declaration-ordered), every process marked KindExtern, envelopes
// pinned from t. Compile the result WithExtern the original factories
// (net.Procs[i].New) to rebuild a behavior-identical network — the
// round-trip the topobench app-identity check exercises.
func Describe(net *kpn.Network, t ExternTiming) *Spec {
	spec := &Spec{
		Name:   net.Name,
		Tokens: t.Tokens,
		Envelopes: &EnvelopeSpec{
			InJitterUs:  []int64{int64(t.InJitterUs[0]), int64(t.InJitterUs[1])},
			OutJitterUs: []int64{int64(t.OutJitterUs[0]), int64(t.OutJitterUs[1])},
		},
	}
	for _, p := range net.Procs {
		ps := ProcSpec{Name: p.Name, Role: p.Role.String(), Kind: KindExtern}
		switch p.Role {
		case kpn.RoleProducer:
			ps.PeriodUs = int64(t.Producer.Period)
			ps.JitterUs = int64(t.Producer.Jitter)
			ps.MinDistUs = int64(t.Producer.MinDist)
		case kpn.RoleConsumer:
			ps.PeriodUs = int64(t.Consumer.Period)
			ps.JitterUs = int64(t.Consumer.Jitter)
			ps.MinDistUs = int64(t.Consumer.MinDist)
		}
		spec.Procs = append(spec.Procs, ps)
	}
	for _, c := range net.Chans {
		spec.Chans = append(spec.Chans, ChanSpec{
			Name:       c.Name,
			From:       c.From,
			To:         c.To,
			Cap:        c.Capacity,
			Init:       c.InitialTokens,
			TokenBytes: c.TokenBytes,
		})
	}
	return spec
}

// Factories collects the behavior factories of a network, keyed by
// process name — the WithExtern argument for a Describe round-trip.
func Factories(net *kpn.Network) map[string]func(replica int) kpn.Behavior {
	out := make(map[string]func(replica int) kpn.Behavior, len(net.Procs))
	for i := range net.Procs {
		out[net.Procs[i].Name] = net.Procs[i].New
	}
	return out
}

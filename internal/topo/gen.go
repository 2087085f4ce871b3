package topo

// Seeded random-topology generator. Generate(seed) deterministically
// draws one Spec from a family of shapes — chains, fork/join trees,
// diamonds, fan-in selectors and feedback loops — with work models
// budgeted so the network is schedulable (total worst-case stage
// latency well under the stream period), every channel carrying a
// positive RTC delay bound (the d of its <p, j, d> triple), and
// every feedback loop preloaded (so kpn.DeadlockRisks stays empty).
// Each spec also draws a detection policy and a fault scenario, so a
// sweep over seeds exercises the whole detection/masking matrix on
// networks nobody hand-wired. The topobench harness in internal/exp
// property-checks every generated spec; gen_test.go pins structural
// invariants (validity, cycle preloads) across hundreds of seeds.

import (
	"fmt"
	"math/rand"

	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

// Scenario labels stamped into Spec.Scenario. The harness derives its
// per-run assertions from the fault script itself; the label is for
// bucketing reports.
const (
	ScenarioFaultFree = "faultfree"
	ScenarioStop      = "stop"    // permanent fail-silent stop (paper's model)
	ScenarioDegrade   = "degrade" // permanent rate degradation
	ScenarioDrop      = "drop"    // intermittent token loss, permanent
	ScenarioCorrupt   = "corrupt" // payload corruption, clean timing
	ScenarioBurst     = "burst"   // within-budget transient stop episodes
)

// Generate deterministically draws the spec for one seed. The result
// always passes Validate and Compile; a failure to do so is a generator
// bug (gen_test.go sweeps seeds to pin this).
func Generate(seed int64) *Spec {
	rng := kpn.NewRand(seed*0x5851F42D4C957F2D + 0x2545F4914F6CDD1D)
	g := &builder{rng: rng, spec: &Spec{Name: fmt.Sprintf("gen-%d", seed)}}

	p := []int64{20000, 30000, 40000, 50000, 80000}[rng.Intn(5)]
	g.periodUs = p
	g.spec.Tokens = 60 + int64(rng.Intn(41))
	g.spec.SlackUs = p / 8

	// Reliable ends. Producer jitter stays under p/5 so the envelopes
	// (producer jitter + stage latency + slack) stay well under one
	// period and the analytic sizing yields small, tight bounds.
	minDist := int64(0)
	if rng.Intn(2) == 0 {
		minDist = p
	}
	g.spec.Procs = append(g.spec.Procs, ProcSpec{
		Name: "src", Role: RoleProducer, Seed: rng.Int63(),
		PeriodUs: p, JitterUs: int64(rng.Intn(int(p/5) + 1)), MinDistUs: minDist,
		PayloadBytes: 16 + rng.Intn(113),
	})

	// Critical interior by shape. Each returns the entry and exit stage
	// names; stage latency budget b per stage keeps the summed worst
	// case under p/2 (see Compile's envelope math).
	var entry, exit string
	switch g.rng.Intn(5) {
	case 0:
		g.spec.Shape = "chain"
		entry, exit = g.chain(2 + rng.Intn(5))
	case 1:
		g.spec.Shape = "tree"
		entry, exit = g.tree(2+rng.Intn(2), 1+rng.Intn(2), false)
	case 2:
		g.spec.Shape = "diamond"
		entry, exit = g.tree(2, 1, false)
	case 3:
		g.spec.Shape = "fanin-select"
		entry, exit = g.tree(2+rng.Intn(2), 1, true)
	case 4:
		g.spec.Shape = "feedback"
		entry, exit = g.feedback(3 + rng.Intn(3))
	}

	g.spec.Procs = append(g.spec.Procs, ProcSpec{
		Name: "dst", Role: RoleConsumer, Seed: rng.Int63(),
		PeriodUs: p, JitterUs: int64(rng.Intn(int(p/5) + 1)), MinDistUs: minDist,
	})
	g.connect("src", entry, 0)
	g.connect(exit, "dst", 0)
	g.spec.Chans = append(g.spec.Chans, g.feedbackChans...)

	g.scenario()
	return g.spec
}

// builder carries generator state.
type builder struct {
	rng      *rand.Rand
	spec     *Spec
	periodUs int64
	// feedbackChans are appended after all forward channels so every
	// stage's first input port is its forward stream (MemoStage takes
	// Seq from input 0).
	feedbackChans []ChanSpec
	nextChan      int
}

// stageBudget is the per-stage worst-latency budget for a shape with n
// stages: the total stays under p/2.
func (g *builder) stageBudget(n int) int64 { return g.periodUs / int64(2*n) }

// stage appends one synthetic stage with a work model inside budget b:
// base in [b/5, b/2], replica jitters under b/4 with replica 2 drawn
// wider than replica 1 (design diversity, Table 1 style).
func (g *builder) stage(name string, b int64, kind string) string {
	j1 := 1 + g.rng.Int63n(max(b/4, 2))
	j2 := j1 + g.rng.Int63n(max(b/4, 2))
	ps := ProcSpec{
		Name: name, Role: RoleCritical, Kind: kind, Seed: g.rng.Int63(),
		BaseUs:          b/5 + g.rng.Int63n(max(b/2-b/5, 2)),
		PerKBUs:         g.rng.Int63n(101),
		ReplicaJitterUs: []int64{j1, j2},
	}
	if kind != KindSelect {
		ps.PayloadBytes = 16 + g.rng.Intn(113)
	}
	g.spec.Procs = append(g.spec.Procs, ps)
	return name
}

// connect appends a forward channel with generated capacity and nominal
// token size; init preloads it.
func (g *builder) connect(from, to string, init int) {
	g.spec.Chans = append(g.spec.Chans, g.chanSpec(from, to, init))
}

// chanSpec draws one channel.
func (g *builder) chanSpec(from, to string, init int) ChanSpec {
	c := ChanSpec{
		Name: fmt.Sprintf("ch%d", g.nextChan),
		From: from,
		To:   to,
		Cap:  4 + g.rng.Intn(5) + init,
		Init: init,
	}
	// A discarded draw: it keeps every later draw, and so the network
	// each seed generates (pinned by the frozen topobench reports and
	// the topo_fleet digest), the same as when channels drew a delay.
	g.rng.Intn(51)
	g.nextChan++
	// Nominal token size: the writer's declared payload, or for selects
	// (which forward an input payload) the widest input seen so far.
	if w := g.spec.Proc(from); w != nil && w.PayloadBytes > 0 {
		c.TokenBytes = w.PayloadBytes
	} else {
		maxIn := 1
		for _, in := range g.spec.Chans {
			if in.To == from && in.TokenBytes > maxIn {
				maxIn = in.TokenBytes
			}
		}
		c.TokenBytes = maxIn
	}
	return c
}

// chain builds s0 -> s1 -> ... -> s(n-1).
func (g *builder) chain(n int) (entry, exit string) {
	b := g.stageBudget(n)
	for i := 0; i < n; i++ {
		g.stage(fmt.Sprintf("s%d", i), b, "")
		if i > 0 {
			g.connect(fmt.Sprintf("s%d", i-1), fmt.Sprintf("s%d", i), 0)
		}
	}
	return "s0", fmt.Sprintf("s%d", n-1)
}

// tree builds a fork/join: s0 fans out to `branches` parallel chains of
// `depth` stages, re-joined by a merge stage — a KindSelect fan-in
// selector when sel is true, a joining stage otherwise. branches=2,
// depth=1 is the classic diamond.
func (g *builder) tree(branches, depth int, sel bool) (entry, exit string) {
	n := 2 + branches*depth
	b := g.stageBudget(n)
	g.stage("s0", b, "")
	var tails []string
	for br := 0; br < branches; br++ {
		prev := "s0"
		for d := 0; d < depth; d++ {
			name := fmt.Sprintf("b%d_%d", br, d)
			g.stage(name, b, "")
			g.connect(prev, name, 0)
			prev = name
		}
		tails = append(tails, prev)
	}
	kind := ""
	if sel {
		kind = KindSelect
	}
	g.stage("join", b, kind)
	for _, t := range tails {
		g.connect(t, "join", 0)
	}
	return "s0", "join"
}

// feedback builds a chain with one preloaded back-edge from a later
// stage to an earlier one — the loop carries 1-2 initial tokens, so
// kpn.DeadlockRisks stays empty while kpn.Cycles sees a real cycle.
func (g *builder) feedback(n int) (entry, exit string) {
	entry, exit = g.chain(n)
	i := g.rng.Intn(n - 1)         // loop head
	j := i + 1 + g.rng.Intn(n-1-i) // loop tail, j > i
	init := 1 + g.rng.Intn(2)
	c := g.chanSpec(fmt.Sprintf("s%d", j), fmt.Sprintf("s%d", i), init)
	g.feedbackChans = append(g.feedbackChans, c)
	return entry, exit
}

// scenario draws the detection policy and fault script.
func (g *builder) scenario() {
	s, rng, p := g.spec, g.rng, g.periodUs
	target := 1 + rng.Intn(2)
	// Injection instant: in the second quarter of the stream, leaving
	// the longest possible post-injection window for slow detectors.
	injectAt := int64(s.Tokens/4)*p + rng.Int63n(int64(s.Tokens/4)*p)

	pick := rng.Intn(100)
	switch {
	case pick < 20:
		s.Scenario = ScenarioFaultFree
		s.Detection = g.timingPolicy()
	case pick < 55:
		s.Scenario = ScenarioStop
		s.Detection = g.timingPolicy()
		mode := []string{"stop-all", "stop-consuming", "stop-producing"}[rng.Intn(3)]
		s.Faults = []FaultSpec{{Replica: target, AtUs: injectAt, Mode: mode}}
	case pick < 65:
		s.Scenario = ScenarioDegrade
		s.Detection = g.timingPolicy()
		s.Faults = []FaultSpec{{Replica: target, AtUs: injectAt, Mode: "degrade",
			ExtraUs: int64(2+rng.Intn(3)) * p}}
	case pick < 75:
		s.Scenario = ScenarioDrop
		s.Detection = g.timingPolicy()
		s.Faults = []FaultSpec{{Replica: target, AtUs: injectAt, Mode: "drop-tokens",
			EveryN: 2 + rng.Intn(2)}}
	case pick < 85:
		s.Scenario = ScenarioCorrupt
		pol := g.timingPolicy()
		if pol == nil {
			pol = &ft.PolicySpec{Kind: ft.PolicyBinary}
		}
		pol.Value = true
		s.Detection = pol
		s.Faults = []FaultSpec{{Replica: target, AtUs: injectAt, Mode: "corrupt",
			EveryN: 3 + rng.Intn(3), Seed: uint64(rng.Int63()) | 1}}
	default:
		s.Scenario = ScenarioBurst
		// detectbench's transient recipe: two-period stall episodes 20
		// periods apart, repaired after the second; the (m,k) budget is
		// sized for a 3-period glitch so the episodes must be forgiven.
		s.Detection = g.mkBudgetPolicy(3 * p)
		s.Faults = []FaultSpec{{Replica: target, AtUs: injectAt, Mode: "burst",
			OnUs: 2 * p, PeriodUs: 20 * p, RepairAtUs: injectAt + 23*p}}
	}
}

// timingPolicy draws the timing-detection policy: nil (the inline
// paper path), explicit binary, or a small (m,k).
func (g *builder) timingPolicy() *ft.PolicySpec {
	switch g.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return &ft.PolicySpec{Kind: ft.PolicyBinary}
	default:
		m := 1 + g.rng.Intn(2)
		return &ft.PolicySpec{Kind: ft.PolicyMK, M: m, K: 2 * (m + 1)}
	}
}

// mkBudgetPolicy sizes an (m,k) policy to forgive a glitchUs transient
// on this spec's own envelopes — the same math as exp.MKBudgetFor,
// computed here so a generated Spec is self-contained.
func (g *builder) mkBudgetPolicy(glitchUs int64) *ft.PolicySpec {
	m := 2
	if model, err := Compile(g.spec); err == nil {
		prod, cons := model.ProducerModel(), model.ConsumerModel()
		in1, in2 := model.InModel(1), model.InModel(2)
		out1, out2 := model.OutModel(1), model.OutModel(2)
		h := rtc.Horizon(prod, cons, in1, in2, out1, out2) * 8
		for _, env := range []rtc.PJD{prod, cons, in1, in2, out1, out2} {
			if b, err := rtc.StallViolationBudget(env.Upper(), glitchUs, h); err == nil && b > m {
				m = b
			}
		}
	}
	return &ft.PolicySpec{Kind: ft.PolicyMK, M: m, K: 2 * (m + 1)}
}

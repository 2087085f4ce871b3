// Package fault injects timing faults at process interfaces, following
// the paper's fault model (Section 2): a faulty replica "either stops
// producing (or consuming) tokens, or does so at a rate lower than
// expected", observed purely at its channel interfaces. Faults are
// injected by gating a replica's read and write ports with a Switch; the
// replica's internal computation is untouched, which matches the paper's
// black-box treatment of replicas.
package fault

import (
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
)

// Mode describes the timing fault a Switch currently imposes.
type Mode int

const (
	// None: the interface behaves normally.
	None Mode = iota
	// StopConsuming blocks all reads forever (the replica stops pulling
	// tokens from its input).
	StopConsuming
	// StopProducing blocks all writes forever (the replica stops
	// delivering tokens; the paper's fail-silent stop fault).
	StopProducing
	// StopAll blocks both directions.
	StopAll
	// Degrade adds a fixed extra delay to every read and write,
	// modelling a replica that still works but at a lower rate than its
	// design-time model allows.
	Degrade
	// Drift is the gray-failure version of Degrade: the extra delay
	// ramps linearly from zero to Gray.ExtraUs over Gray.RampUs after
	// injection — slow jitter drift that stays under the detection
	// envelopes for a while (see gray.go).
	Drift
	// Burst stalls both directions for the first Gray.OnUs of every
	// Gray.PeriodUs — duty-cycled stop-all episodes.
	Burst
	// DropTokens silently swallows every Gray.EveryN-th gated write; the
	// replica computes but intermittently fails to deliver.
	DropTokens
	// Corrupt flips payload bytes of every Gray.EveryN-th gated write
	// while timing stays clean — the value-fault mode only replay-based
	// cross-checking (ft.Selector.SetValueCheck) can detect.
	Corrupt
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case StopConsuming:
		return "stop-consuming"
	case StopProducing:
		return "stop-producing"
	case StopAll:
		return "stop-all"
	case Degrade:
		return "degrade"
	case Drift:
		return "drift"
	case Burst:
		return "burst"
	case DropTokens:
		return "drop-tokens"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Injection records one inject/repair cycle of a Switch.
type Injection struct {
	Mode       Mode
	ExtraUs    des.Time
	At         des.Time
	RepairedAt des.Time // valid when Repaired
	Repaired   bool
}

// Switch is the fault control for one replica. The zero value is a
// healthy interface; faults are armed with Inject or scheduled with
// InjectAt. A Switch is permanent once tripped (the paper tolerates one
// permanent timing fault) unless RepairAt is used — an extension beyond
// the paper's model for studying transient faults: the replica resumes,
// its stale tokens surface as late duplicates the selector drops, and
// any conviction already made stays latched.
type Switch struct {
	k        *des.Kernel
	mode     Mode
	at       des.Time // injection instant, valid once mode != None
	blocked  des.Signal
	injected bool
	repaired bool
	history  []Injection

	// gray parameterizes the fault (see gray.go); ops counts gated
	// writes since injection for the every-N modes.
	gray Gray
	ops  int64
}

// NewSwitch creates a healthy switch bound to the kernel.
func NewSwitch(k *des.Kernel) *Switch { return &Switch{k: k} }

// Inject trips the switch immediately; g parameterizes the fault, and
// each mode reads only its own fields of it. An active fault is
// permanent: further injections are ignored until (and unless) the
// switch is Repair-ed.
func (s *Switch) Inject(mode Mode, g Gray) {
	if s.mode != None || mode == None {
		return
	}
	if mode == Burst && g.PeriodUs > 0 && g.OnUs >= g.PeriodUs {
		g.OnUs = g.PeriodUs - 1
	}
	s.mode = mode
	s.gray = g
	s.ops = 0
	s.at = s.k.Now()
	s.injected = true
	s.history = append(s.history, Injection{Mode: mode, ExtraUs: g.ExtraUs, At: s.at})
}

// InjectAt schedules the fault for virtual time t.
func (s *Switch) InjectAt(t des.Time, mode Mode, g Gray) {
	s.k.At(t, func() { s.Inject(mode, g) })
}

// Mode returns the current fault mode.
func (s *Switch) Mode() Mode { return s.mode }

// InjectedAt returns the most recent injection instant and whether the
// switch has ever been injected (the flag stays latched across Repair,
// so detections of a since-repaired fault are not misread as false
// positives).
func (s *Switch) InjectedAt() (des.Time, bool) { return s.at, s.injected }

// Repair clears the fault, waking any interface operations parked by a
// stop fault. InjectedAt keeps reporting the original injection so
// detection latency remains measurable. The replica may be injected
// again afterwards.
func (s *Switch) Repair() {
	if s.mode == None {
		return
	}
	s.mode = None
	s.gray = Gray{}
	s.ops = 0
	s.repaired = true
	if n := len(s.history); n > 0 && !s.history[n-1].Repaired {
		s.history[n-1].Repaired = true
		s.history[n-1].RepairedAt = s.k.Now()
	}
	s.k.Broadcast(&s.blocked)
}

// RepairAt schedules Repair for virtual time t.
func (s *Switch) RepairAt(t des.Time) {
	s.k.At(t, func() { s.Repair() })
}

// Repaired reports whether the switch has ever been repaired.
func (s *Switch) Repaired() bool { return s.repaired }

// Injections returns the full inject/repair history in injection order;
// campaign engines use it to audit multi-fault scenarios.
func (s *Switch) Injections() []Injection {
	return append([]Injection(nil), s.history...)
}

func stopsReads(m Mode) bool  { return m == StopConsuming || m == StopAll }
func stopsWrites(m Mode) bool { return m == StopProducing || m == StopAll }

// gatePhase is where a gated operation is. Each phase that waits is one
// blocking point of the operation; a retry after the wait continues in
// that phase, so a fault injected or repaired meanwhile takes effect
// exactly where it would in a process blocked at that point.
type gatePhase uint8

const (
	gateStop    gatePhase = iota // park while a stop fault stops this direction
	gateGray                     // apply Drift's ramped delay, or enter the Burst loop
	gateBurst                    // stall to the end of Burst's on-window, re-checking
	gateDegrade                  // pay Degrade's extra delay
	gateInner                    // the wrapped port's operation is next
	// gateHeld: a read holds its token through the stop re-check; a
	// write's transformed token is at the wrapped port.
	gateHeld
)

// gate is the fault state of one gated port's operation in progress.
type gate struct {
	sw    *Switch
	phase gatePhase
	// period is Burst's period as read on entering the loop; a
	// re-injection during a stall changes the window, not the period.
	period des.Time
}

// pre runs the phases before the wrapped operation. It returns the wait
// of the phase the operation stands in, or ok once it reaches gateInner.
func (g *gate) pre(stops func(Mode) bool) (des.Wait, bool) {
	s := g.sw
	for {
		switch g.phase {
		case gateStop:
			if stops(s.mode) {
				return des.On(&s.blocked), false
			}
			g.phase = gateGray
		case gateGray:
			g.phase = gateDegrade
			switch s.mode {
			case Drift:
				extra := s.gray.ExtraUs
				if ramp := s.gray.RampUs; ramp > 0 {
					if elapsed := s.k.Now() - s.at; elapsed < ramp {
						extra = extra * elapsed / ramp
					}
				}
				if extra > 0 {
					return des.For(extra), false
				}
			case Burst:
				if g.period = s.gray.PeriodUs; g.period > 0 {
					g.phase = gateBurst
				}
			}
		case gateBurst:
			// Stall to the end of the current on-window; re-check after
			// the stall in case a repair (or nothing — phase is then
			// past OnUs) changed the picture.
			if s.mode == Burst {
				if phase := (s.k.Now() - s.at) % g.period; phase < s.gray.OnUs {
					return des.For(s.gray.OnUs - phase), false
				}
			}
			g.phase = gateDegrade
		case gateDegrade:
			g.phase = gateInner
			if s.mode == Degrade {
				return des.For(s.gray.ExtraUs), false
			}
		default:
			return des.Wait{}, true
		}
	}
}

// readGate wraps a ReadPort with a Switch.
type readGate struct {
	gate
	inner kpn.ReadPort
	tok   kpn.Token // read from inner, held through the post-read check
}

// GateRead returns a ReadPort whose reads are subject to the switch's
// fault mode at the moment of each call.
func GateRead(port kpn.ReadPort, sw *Switch) kpn.ReadPort {
	return &readGate{gate: gate{sw: sw}, inner: port}
}

// TryRead implements kpn.ReadPort.
func (g *readGate) TryRead() (kpn.Token, des.Wait, bool) {
	if w, ok := g.pre(stopsReads); !ok {
		return kpn.Token{}, w, false
	}
	if g.phase == gateInner {
		tok, w, ok := g.inner.TryRead()
		if !ok {
			return kpn.Token{}, w, false
		}
		g.tok, g.phase = tok, gateHeld
	}
	// A fault injected while blocked inside the inner read must not leak
	// the token onward: re-check and park while the replica is stopped.
	// Under a permanent fault the token is lost with the replica; if the
	// fault is transient (Repair), the resumed replica continues with
	// the token it had fetched — pause semantics.
	if stopsReads(g.sw.mode) {
		return kpn.Token{}, des.On(&g.sw.blocked), false
	}
	tok := g.tok
	g.tok, g.phase = kpn.Token{}, gateStop
	return tok, des.Wait{}, true
}

// Read implements kpn.ReadPort.
func (g *readGate) Read(p *des.Proc) kpn.Token { return kpn.ReadBlocking(p, g.TryRead) }

// PortName implements kpn.ReadPort.
func (g *readGate) PortName() string { return g.inner.PortName() }

// writeGate wraps a WritePort with a Switch.
type writeGate struct {
	gate
	inner kpn.WritePort
	tok   kpn.Token // the token as transformed, until the inner write takes it
}

// GateWrite returns a WritePort whose writes are subject to the switch's
// fault mode at the moment of each call.
func GateWrite(port kpn.WritePort, sw *Switch) kpn.WritePort {
	return &writeGate{gate: gate{sw: sw}, inner: port}
}

// TryWrite implements kpn.WritePort. The token-shaped gray modes apply
// once per write, after the pre-phases.
func (g *writeGate) TryWrite(tok kpn.Token) (des.Wait, bool) {
	if g.phase != gateHeld {
		if w, ok := g.pre(stopsWrites); !ok {
			return w, false
		}
		tok, drop := g.sw.transformWrite(tok)
		if drop {
			g.phase = gateStop
			return des.Wait{}, true
		}
		g.tok, g.phase = tok, gateHeld
	}
	if w, ok := g.inner.TryWrite(g.tok); !ok {
		return w, false
	}
	g.tok, g.phase = kpn.Token{}, gateStop
	return des.Wait{}, true
}

// Write implements kpn.WritePort.
func (g *writeGate) Write(p *des.Proc, tok kpn.Token) { kpn.WriteBlocking(p, g.TryWrite, tok) }

// PortName implements kpn.WritePort.
func (g *writeGate) PortName() string { return g.inner.PortName() }

package ft

import (
	"fmt"
	"math"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
)

// SelectorState is the clock-free core of the paper's selector channel
// (§3.1): n >= 2 writing interfaces and one reading interface sharing a
// single physical FIFO of size max(|S_k|). Per-interface space counters
// start at |S_k| − |S_k|_0 (capacity minus initial tokens, eq. 4) and
// fill starts at max(|S_k|_0) preloaded tokens. A consumer read
// increments every space counter; a write on interface k decrements only
// space_k (Lemma 1: interfaces never touch each other's counter, so
// replicas are isolated).
//
// First-of-set arbitration: interface k's token is the first of its
// duplicate set — and is enqueued — iff k's write count is the (weak)
// maximum of all write counts; otherwise the token duplicates one
// already queued and is dropped. With two interfaces and equal virtual
// capacities this is exactly the paper's "space_k <= space_other" rule;
// tracking write counts keeps the rule correct when capacities differ.
// It is the same elimination as TSN's packet replication and
// elimination function.
//
// Fault detection (§3.3) is counter-only — no runtime timekeeping:
//
//  1. consumer-stall: after a read, space_k > |S_k| means replica k has
//     fallen so far behind that the consumer is living off the other
//     replicas alone; replica k is faulty.
//  2. divergence: after a write, if the writer leads another interface
//     by at least D tokens (eq. 5's threshold), that replica is faulty.
//     D guarantees no false positives.
type SelectorState struct {
	detector
	in      []selPort
	fifo    []kpn.Token
	head    int
	reads   int64
	nPre    int
	maxFill int
	// vcheck, when non-nil, cross-checks every counted write against the
	// golden replay by pair position (RepTFD-style value detection).
	vcheck ValueCheck

	// D is the divergence threshold from rtc.DivergenceThreshold; 0
	// disables divergence detection.
	D int64
}

// selPort is one writing interface's counters.
type selPort struct {
	cap, init int
	space     int64
	// wcnt counts actual tokens written, starting at 0. Arbitration and
	// divergence detection compare these directly: the k-th writes of
	// all interfaces are the same stream token. Initial credits (init)
	// affect only the space counter — folding them into the write counts
	// would shift pair identities between interfaces with asymmetric
	// initial fills and lose a token on fail-over.
	wcnt  int64
	drops int64
	// wBase rebases the pair index after re-integration: the next write
	// belongs to pair wcnt-wBase+1. A zero base reproduces the original
	// counters exactly.
	wBase int64
	// lastSeqW is the stream index (token Seq) of the last counted
	// write; resynchronization aligns a recovering interface's pair
	// index against its reference's lastSeqW.
	lastSeqW int64
	// resync marks an interface undergoing re-integration: its writes
	// bypass arbitration until the Seq alignment point is found.
	resync bool
	// resyncDrops counts stale tokens discarded (uncounted) during
	// resynchronization.
	resyncDrops int64
	// adjust records the space-counter correction applied when the
	// counter was recomputed at alignment, keeping the invariant
	// space = cap - init - effW + reads - adjust machine-checkable.
	adjust int64
	// grace suppresses divergence convictions *by* a freshly re-aligned
	// interface for its first few counted writes: its empty pipeline
	// lets it transiently run ahead of the healthy replicas' in-flight
	// backlog, which is not a model violation by the other side.
	grace int64
	// valueBad latches an interface convicted for value divergence: its
	// writes are discarded uncounted — the healthy interfaces own every
	// pair — until re-integration re-aligns it.
	valueBad bool
	// valueDrops counts tokens discarded by the value path.
	valueDrops int64
}

// NewSelectorState builds a selector core. caps are the virtual
// capacities |S_k| (at least two); inits are the initial token counts
// |S_k|_0 (eq. 4); d is the divergence threshold; preload generates the
// max(inits) physically preloaded tokens (nil for empty timing-only
// tokens with non-positive Seq). now, onFault and wake are the shell's
// callbacks, as for NewReplicatorState.
func NewSelectorState(name string, caps, inits []int, d int64, preload func(i int) kpn.Token,
	now func() int64, onFault FaultHandler, wake func(WaitOn, int)) *SelectorState {
	checkCaps("selector", name, caps)
	if len(inits) != len(caps) {
		panic(fmt.Sprintf("ft: selector %q has %d capacities but %d initial fills", name, len(caps), len(inits)))
	}
	if d < 0 {
		panic(fmt.Sprintf("ft: selector %q divergence threshold must be non-negative, got %d", name, d))
	}
	s := &SelectorState{detector: newDetector(name, len(caps), now, onFault, wake), in: make([]selPort, len(caps)), D: d}
	for i, c := range caps {
		if inits[i] < 0 || inits[i] > c {
			panic(fmt.Sprintf("ft: selector %q initial tokens %d outside [0,%d]", name, inits[i], c))
		}
		s.in[i] = selPort{cap: c, init: inits[i], space: int64(c - inits[i])}
		s.nPre = max(s.nPre, inits[i])
	}
	for i := 0; i < s.nPre; i++ {
		tok := kpn.Token{Seq: int64(i) - int64(s.nPre) + 1}
		if preload != nil {
			tok = preload(i)
		}
		s.fifo = append(s.fifo, tok)
	}
	s.maxFill = s.nPre
	return s
}

// Fill returns the number of tokens currently queued.
func (s *SelectorState) Fill() int { return len(s.fifo) - s.head }

// RecordFlight mirrors every channel event and conviction of the channel
// into st (nil disarms), as ReplicatorState.RecordFlight does. A
// conviction carries the shared FIFO's fill and the replica's divergence.
func (s *SelectorState) RecordFlight(st *obs.FlightStream, perUs int64) {
	s.recordFlight(st, perUs, func(i int) (int, int64) { return s.Fill(), s.Divergence(i) })
}

// MaxFill returns the highest observed fill (Table 2's observed fill).
func (s *SelectorState) MaxFill() int { return s.maxFill }

// Space returns interface k's (1-based) space counter.
func (s *SelectorState) Space(replica int) int64 { return s.in[replica-1].space }

// Writes returns how many tokens interface k (1-based) has actually
// written; Drops counts its late duplicates discarded; Reads counts
// consumer reads.
func (s *SelectorState) Writes(replica int) int64 { return s.in[replica-1].wcnt }
func (s *SelectorState) Drops(replica int) int64  { return s.in[replica-1].drops }
func (s *SelectorState) Reads() int64             { return s.reads }

// ResyncDrops returns how many stale tokens interface k (1-based)
// discarded uncounted during re-integration; Resyncing reports whether
// the interface is still seeking its alignment point.
func (s *SelectorState) ResyncDrops(replica int) int64 { return s.in[replica-1].resyncDrops }
func (s *SelectorState) Resyncing(replica int) bool    { return s.in[replica-1].resync }

// SetValueCheck installs the replay-based value cross-check applied to
// every counted write (nil disables). A failing check convicts the
// writing interface with ReasonValueDivergence and discards the token
// uncounted, so a healthy interface's write becomes the pair's first
// copy and the consumer stream stays golden even though the corrupt
// replica's timing was clean.
func (s *SelectorState) SetValueCheck(check ValueCheck) { s.vcheck = check }

// ValueDrops returns how many tokens interface k (1-based) had
// discarded by the value cross-check path.
func (s *SelectorState) ValueDrops(replica int) int64 { return s.in[replica-1].valueDrops }

// effW is interface i's pair index: how many duplicate pairs it has
// participated in since its last (re-)integration base.
func (s *SelectorState) effW(i int) int64 { return s.in[i].wcnt - s.in[i].wBase }

// front returns the highest pair index among the interfaces other
// than i.
func (s *SelectorState) front(i int) int64 {
	f := int64(math.MinInt64)
	for j := range s.in {
		if j != i {
			f = max(f, s.effW(j))
		}
	}
	return f
}

// Divergence returns how many duplicate pairs the leading other
// interface is ahead of replica (1-based) by — the eq. 5 quantity a
// divergence conviction compares against D. Negative when the replica
// itself is ahead.
func (s *SelectorState) Divergence(replica int) int64 {
	return s.front(replica-1) - s.effW(replica-1)
}

// ref returns the reference a resynchronizing interface i aligns
// against: the front-runner among the other interfaces that are not
// themselves resynchronizing, healthy ones first; -1 if there is none.
func (s *SelectorState) ref(i int) int {
	h := -1
	for j := range s.in {
		if j == i || s.in[j].resync {
			continue
		}
		if h < 0 || s.v[h].faulty && !s.v[j].faulty ||
			s.v[h].faulty == s.v[j].faulty && s.effW(j) > s.effW(h) {
			h = j
		}
	}
	return h
}

// Reintegrate puts interface replica (1-based) into resynchronization
// after its replica has been repaired: stale tokens still in the
// replica's pipeline (stream index below the reference interface's last
// counted write) are discarded uncounted, and the first token at or
// just past the reference write front re-aligns the interface's pair
// index, space counter and divergence base, clearing its conviction.
// The reference must currently be healthy; Reintegrate reports false
// and does nothing otherwise.
func (s *SelectorState) Reintegrate(replica int) bool {
	i := s.index(replica)
	h := s.ref(i)
	if h < 0 || s.v[h].faulty {
		return false
	}
	if s.in[i].resync {
		return true
	}
	// A convicted replica is always at or behind the reference stream
	// (stall and divergence both catch the laggard). Re-integrating an
	// interface that is ahead would re-align its pair index backwards and
	// re-enqueue pairs already in the FIFO, corrupting the stream —
	// refuse rather than corrupt.
	if s.effW(i) > s.effW(h) {
		return false
	}
	s.in[i].resync = true
	s.emit(ProbeReintegrate, replica, s.Fill(), 0)
	// A writer parked on the space counter must re-route through the
	// resync path; one parked mid-resync re-evaluates the new state.
	s.wake(WaitSpace, i)
	s.wake(WaitResync, 0)
	return true
}

// align ends interface i's resynchronization against the reference h.
// back=0 aligns the pending token as the first of the next pair (it
// arrived ahead of h); back=1 aligns it as the late duplicate of h's
// last pair. The space counter is recomputed from the counter identity
// and clamped into [0, cap]; the clamp residue is kept in adjust so the
// identity stays checkable (and detection thresholds shift by at most
// that residue, in the conservative direction for clamp-downs).
func (s *SelectorState) align(i, h int, back int64) {
	p := &s.in[i]
	p.wBase = p.wcnt - (s.effW(h) - back)
	raw := int64(p.cap-p.init) - s.effW(i) + s.reads
	p.space = min(max(raw, 0), int64(p.cap))
	p.adjust = raw - p.space
	p.resync = false
	// Grace: the re-integrated replica's empty pipeline lets it race to
	// the stream front, transiently leading the healthy replicas by up to
	// its in-flight backlog; do not convict the healthy side for that.
	p.grace = int64(p.cap) + s.D
	p.valueBad = false
	s.reinstate(i)
	s.emit(ProbeAligned, i+1, s.Fill(), 0)
}

// TryWrite implements rule 3 with fault detection on interface replica
// (1-based), and the resynchronization protocol of a re-integrating
// interface. It returns WaitSpace when the interface's own space counter
// is zero and WaitResync when a resynchronizing interface's token is
// ahead of the reference write front; both leave the state unchanged.
func (s *SelectorState) TryWrite(replica int, tok kpn.Token) WaitOn {
	i := replica - 1
	p := &s.in[i]
	if p.resync {
		h := s.ref(i)
		if h < 0 {
			return WaitResync // no reference stream left to align against
		}
		switch last := s.in[h].lastSeqW; {
		case tok.Seq <= 0 || tok.Seq < last:
			// Stale pipeline remnant from before the outage (or a
			// preload-era token): discard without counting.
			p.resyncDrops++
			s.emit(ProbeDropResync, replica, s.Fill(), 0)
			return Proceed
		case tok.Seq == last:
			s.align(i, h, 1) // late duplicate of h's current pair
		case tok.Seq == last+1:
			s.align(i, h, 0) // first token of the next pair
		default:
			// Ahead of the reference write front (the recovered
			// replica's pipeline refilled from fresher input): wait for
			// h to advance. Only the recovering side waits here, so
			// Lemma 1 isolation is preserved.
			return WaitResync
		}
	}
	if p.valueBad {
		// A value-convicted interface's stream is corrupt: discard
		// uncounted (no space, pair or Seq bookkeeping) so the healthy
		// interfaces own every pair until re-integration re-aligns it.
		p.valueDrops++
		s.emit(ProbeDropValue, replica, s.Fill(), 0)
		return Proceed
	}
	if p.space == 0 {
		return WaitSpace
	}
	// Replay-based value cross-check (RepTFD): the token must match the
	// golden replay at the pair position it is writing into. A mismatch
	// is discarded uncounted — another interface's copy becomes the
	// pair's first token, so masking stays exact — and convicts the
	// writer even though its timing is clean. Checks are gated on stream
	// identity by the ValueCheck itself (see the type's contract): a
	// replica writing a *different stream position* into the pair (e.g.
	// after a forgiven overflow skipped one of its inputs) is a timing
	// skew for the timing detectors, not corruption.
	if s.vcheck != nil && !s.vcheck(s.effW(i)+1, tok) {
		p.valueDrops++
		s.emit(ProbeDropValue, replica, s.Fill(), 0)
		if convict, forgiven := s.sample(i, ReasonValueDivergence, true); convict {
			p.valueBad = true
			s.flag(i, ReasonValueDivergence)
		} else if forgiven {
			s.emit(ProbeForgiven, replica, 0, 0)
		}
		return Proceed
	}
	front := s.front(i)
	enq := s.effW(i) >= front
	if enq {
		// First token of its duplicate set: enqueue, reclaiming the
		// consumed head slots before the FIFO would grow.
		if s.head > 0 && len(s.fifo) == cap(s.fifo) {
			s.fifo, s.head = s.fifo[:copy(s.fifo, s.fifo[s.head:])], 0
		}
		s.fifo = append(s.fifo, tok)
		fill := s.Fill()
		s.maxFill = max(s.maxFill, fill)
		if fill == 1 {
			s.wake(WaitData, 0) // the consumer parks only on an empty FIFO
		}
	} else {
		// Late duplicate of an already-queued token: drop.
		p.drops++
	}
	kind := ProbeDropDuplicate
	if enq {
		kind = ProbeEnqueue
	}
	s.emit(kind, replica, s.Fill(), s.effW(i)+1-front)
	p.wcnt++
	p.space--
	p.lastSeqW = tok.Seq
	if p.grace > 0 {
		p.grace--
	}
	for j := range s.in {
		if s.in[j].resync {
			s.wake(WaitResync, 0)
			break
		}
	}
	// Divergence detection (§3.3): writer i leading by >= D implies the
	// other replica's output has fallen behind its envelope. An
	// interface in resync is judged only after alignment, and a freshly
	// aligned interface's transient lead is excused by its grace. Each
	// evaluation is one policy sample; the inline path (nil policy)
	// convicts on the first violation.
	if s.D > 0 && p.grace == 0 {
		for j := range s.in {
			if j != i && !s.v[j].faulty && !s.in[j].resync {
				lead := s.effW(i) - s.effW(j)
				s.judge(j, ReasonDivergence, lead >= s.D, s.Fill(), lead)
			}
		}
	}
	return Proceed
}

// TryRead implements the destructive read of the single reader
// interface, with consumer-stall detection; it returns WaitData when the
// FIFO is empty.
func (s *SelectorState) TryRead() (tok kpn.Token, w WaitOn) {
	if s.head < len(s.fifo) {
		tok = s.fifo[s.head]
		s.take()
		return tok, Proceed
	}
	return tok, WaitData
}

// take drops the head token and runs the read-side bookkeeping and
// detection. TryRead copies the token out first, so the token itself
// never crosses a call.
func (s *SelectorState) take() {
	s.fifo[s.head] = kpn.Token{}
	s.head++
	if s.head == len(s.fifo) {
		s.fifo = s.fifo[:0]
		s.head = 0
	}
	s.reads++
	s.emit(ProbeRead, 0, s.Fill(), 0)
	for i := range s.in {
		p := &s.in[i]
		p.space++
		// Consumer-stall detection: space beyond the virtual capacity
		// means this replica no longer backs the tokens being consumed.
		// An interface mid-resync is exempt until it re-aligns. Each
		// read is one policy sample per interface.
		if !s.v[i].faulty && !p.resync {
			s.judge(i, ReasonConsumerStall, p.space > int64(p.cap), s.Fill(), 0)
		}
		// Writer i parks only on a zero space counter (Reintegrate
		// re-routes it with its own wake), so only the 0 → 1 transition
		// can release it.
		if p.space == 1 {
			s.wake(WaitSpace, i)
		}
	}
}

// CheckInvariants verifies the selector's counter identities: per
// interface, space = cap - init - effW + reads - adjust, and globally
// fill = preload + max(effW) - reads. It returns the first violation.
func (s *SelectorState) CheckInvariants() error {
	maxEff := int64(math.MinInt64)
	for i, p := range s.in {
		if want := int64(p.cap-p.init) - s.effW(i) + s.reads - p.adjust; p.space != want {
			return fmt.Errorf("ft: selector %q space_%d = %d, counter identity gives %d",
				s.name, i+1, p.space, want)
		}
		maxEff = max(maxEff, s.effW(i))
	}
	if want := int64(s.nPre) + maxEff - s.reads; int64(s.Fill()) != want {
		return fmt.Errorf("ft: selector %q fill = %d, pair accounting gives %d",
			s.name, s.Fill(), want)
	}
	return nil
}

// Selector is the selector channel on the DES kernel: the core plus
// process-facing ports that park on des.Signal.
type Selector struct {
	SelectorState
	notEmpty   des.Signal
	notFull    []des.Signal
	resyncWait des.Signal
}

// NewSelector builds a two-interface selector channel. caps are the
// virtual capacities |S_1|, |S_2| (eq. 3 analogue on the consumer side);
// inits are the initial token counts |S_1|_0, |S_2|_0 (eq. 4); preload
// generates the max(inits) physically preloaded tokens (nil for empty
// timing-only tokens with non-positive Seq).
func NewSelector(k *des.Kernel, name string, caps, inits [2]int, d int64, preload func(i int) kpn.Token, handler FaultHandler) *Selector {
	return NewNSelector(k, name, caps[:], inits[:], d, preload, handler)
}

// NewNSelector builds an n-way selector (n = len(caps) = len(inits) >=
// 2), the first-of-set merge of the paper's §1 generalization.
func NewNSelector(k *des.Kernel, name string, caps, inits []int, d int64, preload func(i int) kpn.Token, handler FaultHandler) *Selector {
	s := &Selector{notFull: make([]des.Signal, len(caps))}
	s.SelectorState = *NewSelectorState(name, caps, inits, d, preload, k.Now, handler,
		func(w WaitOn, port int) { k.Broadcast(s.signal(w, port)) })
	return s
}

func (s *Selector) signal(w WaitOn, port int) *des.Signal {
	switch w {
	case WaitData:
		return &s.notEmpty
	case WaitSpace:
		return &s.notFull[port]
	default:
		return &s.resyncWait
	}
}

// tryWrite submits interface i's (0-based) next token, waiting on the
// interface's own space counter (Lemma 1) or on resynchronization.
func (s *Selector) tryWrite(i int, tok kpn.Token) (des.Wait, bool) {
	if w := s.TryWrite(i+1, tok); w != Proceed {
		return des.On(s.signal(w, i)), false
	}
	return des.Wait{}, true
}

// tryRead removes the head token, waiting while the FIFO is empty.
func (s *Selector) tryRead() (kpn.Token, des.Wait, bool) {
	if tok, w := s.TryRead(); w == Proceed {
		return tok, des.Wait{}, true
	}
	return kpn.Token{}, des.On(&s.notEmpty), false
}

// selectorWriter is one replica-facing write interface.
type selectorWriter struct {
	s *Selector
	i int
}

// WriterPort returns the write interface for replica (1-based).
func (s *Selector) WriterPort(replica int) kpn.WritePort {
	return selectorWriter{s: s, i: s.index(replica)}
}

func (w selectorWriter) TryWrite(tok kpn.Token) (des.Wait, bool) { return w.s.tryWrite(w.i, tok) }
func (w selectorWriter) Write(p *des.Proc, tok kpn.Token)        { kpn.WriteBlocking(p, w.TryWrite, tok) }
func (w selectorWriter) PortName() string                        { return fmt.Sprintf("%s.w%d", w.s.name, w.i+1) }

// selectorReader is the consumer-facing read interface.
type selectorReader struct{ s *Selector }

// ReaderPort returns the single read interface.
func (s *Selector) ReaderPort() kpn.ReadPort { return selectorReader{s} }

func (rd selectorReader) TryRead() (kpn.Token, des.Wait, bool) { return rd.s.tryRead() }
func (rd selectorReader) Read(p *des.Proc) kpn.Token           { return kpn.ReadBlocking(p, rd.TryRead) }
func (rd selectorReader) PortName() string                     { return rd.s.name + ".r" }

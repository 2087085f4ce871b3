package ft

import (
	"fmt"

	"ftpn/internal/kpn"
)

// This file is the pluggable detection-policy layer. The paper convicts
// a replica on the first violation of a counter bound (eq. 5's
// divergence threshold, a full replicator queue, a selector space
// counter past its virtual capacity) — correct for the SCC demo's
// permanent fault model, but a long-running service must ride out
// transient glitches. A Policy receives every evaluation of a detection
// predicate as a *sample* (violated or clean) and decides when the
// evidence amounts to a conviction. The built-in policies are:
//
//   - binary: convict on the first violation — the paper-fidelity
//     oracle, behaviorally identical to the inline path;
//   - (m,k) weakly-hard (Liang et al.): a replica may violate up to m
//     samples in any sliding window of k samples before conviction —
//     convict iff >m violations land in some k-window. (0,1) degenerates
//     to binary;
//   - value: composable replay cross-checking (RepTFD-style) — value
//     divergence is hard evidence of corruption and convicts on the
//     first sample whatever the timing policy forgives.
//
// A nil Policy on a channel keeps the original inline first-violation
// code path (zero overhead, bit-identical behavior); policies are
// per-channel instances and are not safe for concurrent use: the channel
// core calls them only inside its operations, which the crt wall-clock
// shells serialize under the channel mutex.

// FaultKind classifies what a conviction is evidence of: a timing-bound
// violation (the paper's model) or a payload value divergence (RepTFD
// replay cross-check).
type FaultKind string

const (
	KindTiming FaultKind = "timing"
	KindValue  FaultKind = "value"
)

// kindOf maps a detection reason to its fault kind.
func kindOf(reason Reason) FaultKind {
	if reason == ReasonValueDivergence {
		return KindValue
	}
	return KindTiming
}

// Policy decides, sample by sample, when detection evidence convicts a
// replica. Samples arrive once per evaluation of a detection predicate
// (per counted selector write for divergence, per consumer read for
// stalls, per producer write for queue overflow); violation reports
// whether the predicate was violated. Sample returns true when the
// replica must be convicted now. Implementations keep per-(replica,
// reason) state; Reset clears one replica's history at re-integration.
type Policy interface {
	// Sample feeds one detection-window observation for replica r
	// (0-based) and returns whether to convict.
	Sample(r int, reason Reason, violation bool) bool
	// Reset clears replica r's sample history (called on re-integration
	// so a recovered replica starts with a clean window).
	Reset(r int)
}

// PolicyKind names a built-in policy family.
type PolicyKind string

const (
	// PolicyDefault keeps the inline first-violation path (nil Policy).
	PolicyDefault PolicyKind = ""
	// PolicyBinary is the first-violation policy as an explicit Policy
	// instance — behaviorally identical to PolicyDefault, used to
	// validate that the sampling path matches the inline path.
	PolicyBinary PolicyKind = "binary"
	// PolicyMK is the (m,k) weakly-hard policy.
	PolicyMK PolicyKind = "mk"
)

// PolicySpec selects and parameterizes a detection policy. The zero
// value means "inline binary" (no Policy instantiated). M and K apply
// to PolicyMK only; Value composes replay-based value cross-checking on
// top of the timing policy (the ft channels additionally need a
// ValueCheck installed for value samples to exist).
type PolicySpec struct {
	Kind  PolicyKind `json:"kind,omitempty"`
	M     int        `json:"m,omitempty"`
	K     int        `json:"k,omitempty"`
	Value bool       `json:"value,omitempty"`
}

// IsDefault reports whether the spec selects the inline binary path.
func (sp PolicySpec) IsDefault() bool { return sp == PolicySpec{} }

// String renders the spec for reports: "binary", "mk(2,16)",
// "mk(2,16)+value".
func (sp PolicySpec) String() string {
	var base string
	switch sp.Kind {
	case PolicyDefault:
		base = "binary"
	case PolicyMK:
		base = fmt.Sprintf("mk(%d,%d)", sp.M, sp.K)
	default:
		base = string(sp.Kind)
	}
	if sp.Value {
		base += "+value"
	}
	return base
}

// Validate reports whether the spec names an instantiable policy, so
// declarative layers (the topology DSL, CLI flags) can reject a bad
// spec before any channel is built.
func (sp PolicySpec) Validate() error {
	_, err := NewPolicy(sp)
	return err
}

// NewPolicy instantiates the spec. The zero-value spec returns (nil,
// nil): callers leave the channel on its inline path. Policies are
// stateful — build one instance per channel.
func NewPolicy(sp PolicySpec) (Policy, error) {
	if sp.IsDefault() {
		return nil, nil
	}
	var p Policy
	switch sp.Kind {
	case PolicyDefault, PolicyBinary:
		if sp.M != 0 || sp.K != 0 {
			return nil, fmt.Errorf("ft: binary policy takes no (m,k) parameters, got (%d,%d)", sp.M, sp.K)
		}
		p = binaryPolicy{}
	case PolicyMK:
		mk, err := NewMKPolicy(sp.M, sp.K)
		if err != nil {
			return nil, err
		}
		p = mk
	default:
		return nil, fmt.Errorf("ft: unknown policy kind %q", sp.Kind)
	}
	if sp.Value {
		p = ValuePolicy{Timing: p}
	}
	return p, nil
}

// binaryPolicy convicts on the first violation — the paper's §3.3
// behavior expressed through the sampling interface.
type binaryPolicy struct{}

func (binaryPolicy) Sample(_ int, _ Reason, violation bool) bool { return violation }
func (binaryPolicy) Reset(int)                                   {}

// MKPolicy is the (m,k) weakly-hard policy: replica r is convicted for
// a reason as soon as more than m of its last k samples for that reason
// were violations. Windows are kept per (replica, reason) so a
// divergence excursion does not consume the queue-overflow budget.
type MKPolicy struct {
	m, k int
	win  [][numReasons]mkWindow // per replica, grown on first use
}

// NewMKPolicy validates and builds an (m,k) policy. k must be at least
// 1 and m must satisfy 0 <= m < k (m = k would forgive a permanently
// violating replica forever).
func NewMKPolicy(m, k int) (*MKPolicy, error) {
	if k < 1 {
		return nil, fmt.Errorf("ft: (m,k) policy needs k >= 1, got k=%d", k)
	}
	if m < 0 || m >= k {
		return nil, fmt.Errorf("ft: (m,k) policy needs 0 <= m < k, got (%d,%d)", m, k)
	}
	p := &MKPolicy{m: m, k: k}
	p.grow(1) // the common two-replica case never grows on the hot path
	return p, nil
}

// grow adds fresh windows for every replica up to r (0-based).
func (p *MKPolicy) grow(r int) {
	for len(p.win) <= r {
		var w [numReasons]mkWindow
		for j := range w {
			w[j].init(p.k)
		}
		p.win = append(p.win, w)
	}
}

// MK returns the policy's (m, k) parameters.
func (p *MKPolicy) MK() (m, k int) { return p.m, p.k }

// Sample implements Policy. Value divergence is not a deadline miss —
// it is evidence of corruption — so it bypasses the window and convicts
// immediately (compose with ValuePolicy for explicitness).
func (p *MKPolicy) Sample(r int, reason Reason, violation bool) bool {
	j, ok := reasonIndex(reason)
	if !ok {
		return violation
	}
	if r >= len(p.win) {
		p.grow(r)
	}
	w := &p.win[r][j]
	w.push(violation)
	return w.count > p.m
}

// Reset implements Policy.
func (p *MKPolicy) Reset(r int) {
	if r >= len(p.win) {
		return
	}
	for j := range p.win[r] {
		p.win[r][j].init(p.k)
	}
}

// numReasons is the number of windowed timing reasons.
const numReasons = 3

// reasonIndex maps a timing reason to its window slot. Value divergence
// (and unknown reasons) are not windowed.
func reasonIndex(reason Reason) (int, bool) {
	switch reason {
	case ReasonQueueFull:
		return 0, true
	case ReasonDivergence:
		return 1, true
	case ReasonConsumerStall:
		return 2, true
	default:
		return 0, false
	}
}

// mkWindow is a sliding bitset over the last k samples.
type mkWindow struct {
	bits  []uint64
	k     int
	pos   int // slot the next sample lands in
	n     int // samples seen, saturating at k
	count int // violations among the last min(n,k) samples
}

// init sizes the window for k samples and clears it.
func (w *mkWindow) init(k int) {
	words := (k + 63) / 64
	if cap(w.bits) < words {
		w.bits = make([]uint64, words)
	} else {
		w.bits = w.bits[:words]
		for i := range w.bits {
			w.bits[i] = 0
		}
	}
	w.k, w.pos, w.n, w.count = k, 0, 0, 0
}

// push appends one sample, evicting the k-th-oldest when full.
func (w *mkWindow) push(violation bool) {
	word, bit := w.pos/64, uint64(1)<<uint(w.pos%64)
	if w.n == w.k {
		if w.bits[word]&bit != 0 {
			w.count--
		}
	} else {
		w.n++
	}
	if violation {
		w.bits[word] |= bit
		w.count++
	} else {
		w.bits[word] &^= bit
	}
	w.pos++
	if w.pos == w.k {
		w.pos = 0
	}
}

// ValuePolicy composes replay-based value cross-checking over a timing
// policy: value-divergence samples convict on the first violation
// (corrupt bytes are not a transient to forgive), all other samples are
// delegated. A nil Timing delegates to binary behavior.
type ValuePolicy struct {
	Timing Policy
}

// Sample implements Policy.
func (p ValuePolicy) Sample(r int, reason Reason, violation bool) bool {
	if reason == ReasonValueDivergence {
		return violation
	}
	if p.Timing == nil {
		return violation
	}
	return p.Timing.Sample(r, reason, violation)
}

// Reset implements Policy.
func (p ValuePolicy) Reset(r int) {
	if p.Timing != nil {
		p.Timing.Reset(r)
	}
}

// ValueCheck cross-checks one selector write against the golden replay:
// pair is the 1-based duplicate-pair index the token would occupy, and
// the check returns false when the token's value diverges from the
// golden token at that position. Contract: a check must fail only on
// *value* divergence — same stream position (same Seq), different
// payload. A token whose Seq does not match the golden position is a
// stream skew (the replica skipped or replayed inputs, e.g. after a
// forgiven queue overflow), which is the timing detectors' business;
// the check must pass it. Unknown positions should also return true.
type ValueCheck func(pair int64, tok kpn.Token) bool

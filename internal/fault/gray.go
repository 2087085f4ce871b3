package fault

// Gray-failure fault library: faults that are neither fail-silent nor
// cleanly degraded — slow jitter drift, duty-cycled stalls, intermittent
// token loss and silent payload corruption. These are the fault classes an (m,k) weakly-hard detection
// policy must ride out (short, within-budget episodes) or a value
// cross-check must catch (corruption with clean timing); the binary
// first-violation policy either convicts on the first excursion or
// never notices.

import (
	"ftpn/internal/des"
	"ftpn/internal/kpn"
)

// Gray parameterizes an injected fault. Only the fields of the injected
// mode are read; the stop modes read none.
type Gray struct {
	// Degrade: every operation pays ExtraUs. Drift: the per-operation
	// delay ramps linearly from 0 at injection to ExtraUs once RampUs
	// has elapsed (RampUs = 0 starts at full strength, i.e. plain
	// Degrade).
	ExtraUs des.Time
	RampUs  des.Time

	// Burst: operations stall for the first OnUs of every PeriodUs,
	// phase-locked to the injection instant. OnUs is clamped below
	// PeriodUs (a full-period stall is StopAll, not a burst).
	OnUs     des.Time
	PeriodUs des.Time

	// DropTokens/Corrupt: every EveryN-th gated write is affected
	// (EveryN <= 1 means every write).
	EveryN int

	// Corrupt: Seed varies which payload byte is flipped.
	Seed uint64
}

// transformWrite applies the token-shaped gray modes to a gated write:
// returns the (possibly corrupted) token and whether to drop it.
func (s *Switch) transformWrite(tok kpn.Token) (kpn.Token, bool) {
	switch s.mode {
	case DropTokens:
		s.ops++
		return tok, s.nth()
	case Corrupt:
		s.ops++
		if s.nth() && len(tok.Payload) > 0 {
			// Flip one payload byte in a copy — cached golden payloads
			// (kpn.PayloadMemo) are shared and must stay immutable.
			corrupt := append([]byte(nil), tok.Payload...)
			idx := int((s.gray.Seed + uint64(s.ops)) % uint64(len(corrupt)))
			corrupt[idx] ^= 0x5A
			tok.Payload = corrupt
		}
		return tok, false
	default:
		return tok, false
	}
}

// nth reports whether the current op lands on the every-N schedule.
func (s *Switch) nth() bool {
	n := int64(s.gray.EveryN)
	if n <= 1 {
		return true
	}
	return s.ops%n == 0
}

// Drops returns how many gated writes the switch has swallowed or
// corrupted so far under the current every-N mode. It is a state
// accessor for tests; no experiment reads it.
func (s *Switch) Drops() int64 {
	if s.mode != DropTokens && s.mode != Corrupt {
		return 0
	}
	n := int64(s.gray.EveryN)
	if n <= 1 {
		return s.ops
	}
	return (s.ops + n - 1) / n
}

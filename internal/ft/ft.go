// Package ft is the paper's primary contribution: arbitration channels
// (the replicator and the selector of Section 3.1) that make a
// duplicated real-time process network equivalent to its reference
// network, plus counter-based timing-fault detection (Section 3.3) that
// needs no runtime timekeeping, and the network transform that builds
// the duplicated system (Figure 1).
//
// The replicator duplicates a producer's stream to both replicas; a full
// replica-side queue at write time marks that replica faulty and the
// producer never blocks on it. The selector merges the replicas' output
// streams, queueing the first token of each duplicate pair and dropping
// the late one; a replica whose stream diverges by the analytically
// derived threshold D (rtc.DivergenceThreshold, eq. 5), or whose space
// counter shows it is stalling the consumer, is marked faulty. Lemma 1's
// isolation property holds by construction: no operation on one writer
// interface ever touches the other interface's space counter.
package ft

import (
	"fmt"

	"ftpn/internal/des"
)

// Reason classifies how a fault was detected.
type Reason string

const (
	// ReasonQueueFull: the producer found a replicator queue full
	// (replicator detection, §3.3).
	ReasonQueueFull Reason = "queue-full"
	// ReasonDivergence: the token-count divergence between the replicas
	// reached the threshold D (selector/replicator detection, §3.3).
	ReasonDivergence Reason = "divergence"
	// ReasonConsumerStall: a selector space counter exceeded its virtual
	// capacity, i.e. the replica would stall the consumer (§3.3).
	ReasonConsumerStall Reason = "consumer-stall"
	// ReasonValueDivergence: a replica's token failed the replay-based
	// value cross-check against the golden payload for its stream
	// position (RepTFD-style; see Selector.SetValueCheck).
	ReasonValueDivergence Reason = "value-divergence"
)

// Fault is one detection event. Replica is 1-based, matching the
// paper's R_1/R_2 notation. Kind distinguishes timing-bound violations
// from value (payload) divergence.
type Fault struct {
	Channel string
	Replica int
	At      des.Time
	Reason  Reason
	Kind    FaultKind
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	return fmt.Sprintf("%s: replica R%d faulty at t=%dµs (%s)", f.Channel, f.Replica, f.At, f.Reason)
}

// FaultHandler receives detection events as they happen.
type FaultHandler func(Fault)

package ft

// ProbeKind discriminates the channel-level events a channel records on
// its flight stream; its String is the event's kind in the flight log.
type ProbeKind uint8

const (
	// ProbeWrite: the producer-side write interface accepted one token
	// (replicator only; fired once per write, before per-replica
	// delivery). Replica is 0.
	ProbeWrite ProbeKind = iota
	// ProbeEnqueue: a token entered replica Replica's queue (replicator)
	// or the shared FIFO via interface Replica (selector). Fill is the
	// queue fill after the enqueue; for selectors Lead is the writer's
	// pair-index lead over the other interface after the write.
	ProbeEnqueue
	// ProbeRead: a token was consumed. Replica identifies the reading
	// replica for replicators and is 0 for the selector's single
	// consumer. Fill is the fill after the read.
	ProbeRead
	// ProbeDropDuplicate: a selector interface's token was the late
	// duplicate of an already-queued pair and was discarded (counted).
	ProbeDropDuplicate
	// ProbeDropLost: a replicator write found every replica faulty and
	// the token was lost.
	ProbeDropLost
	// ProbeDropSlide: a re-integrated replicator queue re-armed itself on
	// overflow, discarding its oldest token instead of convicting.
	ProbeDropSlide
	// ProbeDropResync: a selector interface in resynchronization
	// discarded a stale pipeline token (uncounted).
	ProbeDropResync
	// ProbeReintegrate: a repaired replica was re-admitted (replicator:
	// queue re-armed with Fill tokens; selector: resynchronization
	// entered).
	ProbeReintegrate
	// ProbeAligned: a resynchronizing selector interface found its
	// alignment point and is fully re-integrated.
	ProbeAligned
	// ProbeForgiven: a detection predicate was violated but the
	// channel's (m,k) policy rode it out instead of convicting. Lead
	// carries the divergence at the violation where meaningful.
	ProbeForgiven
	// ProbeDropValue: a selector interface's token failed the
	// replay-based value cross-check (or followed one that did) and was
	// discarded uncounted, letting the healthy interface own the pair.
	ProbeDropValue
)

// probeKindNames are the kinds' log and trace names, indexed by kind.
var probeKindNames = [...]string{"write", "enqueue", "read", "drop-duplicate", "drop-lost",
	"drop-slide", "drop-resync", "reintegrate", "aligned", "forgiven", "drop-value"}

// String names the kind for logs and trace markers.
func (k ProbeKind) String() string {
	if int(k) < len(probeKindNames) {
		return probeKindNames[k]
	}
	return "unknown"
}

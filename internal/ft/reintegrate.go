package ft

import (
	"fmt"
	"sort"
)

// Reintegrate repairs replica's (1-based) fault switch and re-admits it
// on every arbitration channel of the system, channels first so the
// replica resumes against already-consistent channel state within the
// caller's kernel event. Replicator queues are purged of stale backlog
// and re-armed from the healthy replica's queue, mirroring its newest
// min(capacity-1, healthy fill) tokens with a read-divergence grace of
// capacity + DReads consumptions; selector interfaces enter Seq-based
// resynchronization that drains stale pipeline tokens and re-aligns the
// pair index, space counter and divergence base at the healthy write
// front. Channels are visited in name order so recovery is
// deterministic. It reports whether every channel accepted the
// re-integration (a channel refuses when no healthy reference replica
// remains).
func (sys *System) Reintegrate(replica int) bool {
	if replica < 1 || replica > 2 {
		panic(fmt.Sprintf("ft: replica %d out of range {1,2}", replica))
	}
	ok := true
	for _, name := range sortedKeys(sys.Replicators) {
		r := sys.Replicators[name]
		ok = r.Reintegrate(replica, r.Capacity(replica)-1, int64(r.Capacity(replica))+r.DReads) && ok
	}
	for _, name := range sortedKeys(sys.Selectors) {
		ok = sys.Selectors[name].Reintegrate(replica) && ok
	}
	sys.Switches[replica-1].Repair()
	return ok
}

// CheckInvariants verifies the counter identities of every arbitration
// channel, returning the first violation.
func (sys *System) CheckInvariants() error {
	for _, name := range sortedKeys(sys.Replicators) {
		if err := sys.Replicators[name].CheckInvariants(); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(sys.Selectors) {
		if err := sys.Selectors[name].CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

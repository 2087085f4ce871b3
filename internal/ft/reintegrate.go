package ft

import (
	"fmt"
	"sort"

	"ftpn/internal/des"
)

// ReintegrationPlan carries the per-channel re-arm parameters of a
// replica recovery, normally derived from the rtc initial-fill solver
// (eq. 4) by package recover. Zero values select safe defaults.
type ReintegrationPlan struct {
	// RepFill caps the re-armed queue fill per replicator channel; a
	// missing entry mirrors the healthy queue fully (trimmed only by
	// the queue's own capacity).
	RepFill map[string]int
	// RepGrace is the read-divergence grace per replicator channel; a
	// missing entry defaults to capacity + DReads consumptions.
	RepGrace map[string]int64
}

// Reintegrate re-admits replica (1-based) on every arbitration channel
// of the system after its fault switch has been repaired: replicator
// queues are purged of stale backlog and re-armed from the healthy
// replica's queue, and selector interfaces enter Seq-based
// resynchronization that drains stale pipeline tokens and re-aligns the
// pair index, space counter and divergence base at the healthy write
// front. Channels are visited in name order so recovery is
// deterministic. It reports whether every channel accepted the
// re-integration (a channel refuses when no healthy reference replica
// remains).
func (sys *System) Reintegrate(replica int, plan ReintegrationPlan) bool {
	if replica < 1 || replica > 2 {
		panic(fmt.Sprintf("ft: replica %d out of range {1,2}", replica))
	}
	ok := true
	for _, name := range sortedKeys(sys.Replicators) {
		r := sys.Replicators[name]
		fill := r.Capacity(replica) - 1
		if f, have := plan.RepFill[name]; have {
			fill = f
		}
		grace := int64(r.Capacity(replica)) + r.DReads
		if g, have := plan.RepGrace[name]; have {
			grace = g
		}
		ok = r.Reintegrate(replica, fill, grace) && ok
	}
	for _, name := range sortedKeys(sys.Selectors) {
		ok = sys.Selectors[name].Reintegrate(replica) && ok
	}
	return ok
}

// Repair clears replica's (1-based) fault switch at virtual time t and
// re-integrates it on every arbitration channel in the same event, so
// the replica resumes against already-consistent channel state.
func (sys *System) RepairAndReintegrateAt(replica int, t des.Time, plan ReintegrationPlan) {
	sys.K.At(t, func() {
		sys.Reintegrate(replica, plan)
		sys.Switches[replica-1].Repair()
	})
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

// sortedValues returns m's values in key order, so metric registration
// and probe installation are deterministic.
func sortedValues[V any](m map[string]V) []V {
	out := make([]V, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, m[k])
	}
	return out
}

package ft

import (
	"fmt"
	"math"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
)

// ReplicatorState is the clock-free core of the paper's replicator
// channel (§3.1): one writing interface and n >= 2 reading interfaces
// backed by per-replica FIFO queues of capacities |R_1| … |R_n|. Every
// written token is duplicated into every healthy queue.
//
// In Strict mode the channel follows rule 3 literally: a write waits
// while some queue is full, which (with unbounded or never-overflowing
// queues) yields the equivalence of Theorem 2. In the default
// fault-detecting mode (§3.3) a write that finds queue k full instead
// marks replica k faulty and stops feeding it, so the producer never
// blocks on a faulty replica.
//
// Optionally, a divergence threshold DReads > 0 additionally flags a
// replica whose *consumption* lags another's by DReads tokens,
// detecting rate degradation before a queue fills (the replicator-side
// analogue of eq. 5, which §3.4 notes is computed analogously).
type ReplicatorState struct {
	detector
	q      []repQueue
	writes int64
	lost   int64 // tokens dropped because every replica was faulty

	// Strict disables fault detection and blocks per rule 3.
	Strict bool
	// DReads is the read-divergence threshold; 0 disables it.
	DReads int64
}

// repQueue is one replica's queue and its re-integration bookkeeping:
// len(toks) = appended - reads - purged at all times.
type repQueue struct {
	toks     []kpn.Token
	cap      int
	maxFill  int
	reads    int64
	appended int64
	purged   int64
	// readBase rebases the consumption position after re-integration:
	// the effective position is reads-readBase. A zero base reproduces
	// the original counters exactly.
	readBase int64
	// grace suppresses read-divergence convictions involving a freshly
	// re-integrated replica for its first grace consumptions, covering
	// the transient position skew its re-armed queue introduces.
	grace int64
	// slide marks a re-integrated replica that has not read since: until
	// its first read the queue keeps re-arming itself on overflow (drop
	// oldest, append newest) instead of convicting — the replica may
	// still be finishing an operation that was in flight (and possibly
	// degraded) when the fault was repaired. The window stays contiguous,
	// so pair identity is preserved; queue-full detection is fully armed
	// again from the first read on.
	slide bool
}

// NewReplicatorState builds a replicator core with one queue per entry
// of caps (at least two). now timestamps channel events and faults,
// onFault receives convictions and wake is called whenever a parked
// party may proceed.
func NewReplicatorState(name string, caps []int, now func() int64, onFault FaultHandler, wake func(WaitOn, int)) *ReplicatorState {
	checkCaps("replicator", name, caps)
	r := &ReplicatorState{detector: newDetector(name, len(caps), now, onFault, wake), q: make([]repQueue, len(caps))}
	for i, c := range caps {
		r.q[i].cap = c
	}
	return r
}

// Fill returns the fill level of replica queue i (1-based).
func (r *ReplicatorState) Fill(replica int) int { return len(r.q[replica-1].toks) }

// RecordFlight mirrors every channel event and conviction of the channel
// into st (nil disarms), stamped in µs of a shell clock that ticks perUs
// times per µs. A conviction carries the convicted queue's fill and its
// read divergence.
func (r *ReplicatorState) RecordFlight(st *obs.FlightStream, perUs int64) {
	r.recordFlight(st, perUs, func(i int) (int, int64) { return r.Fill(i), r.Divergence(i) })
}

// Capacity returns the capacity of replica queue i (1-based).
func (r *ReplicatorState) Capacity(replica int) int { return r.q[replica-1].cap }

// MaxFill returns the highest observed fill of replica queue i
// (1-based) — Table 2's "Max. Observed Fill".
func (r *ReplicatorState) MaxFill(replica int) int { return r.q[replica-1].maxFill }

// Writes returns the number of tokens accepted from the producer; Reads
// returns how many replica i (1-based) has consumed; Lost counts tokens
// discarded because every queue was faulty.
func (r *ReplicatorState) Writes() int64           { return r.writes }
func (r *ReplicatorState) Reads(replica int) int64 { return r.q[replica-1].reads }
func (r *ReplicatorState) Lost() int64             { return r.lost }

// effReads is replica i's effective consumption position since its last
// (re-)integration base.
func (r *ReplicatorState) effReads(i int) int64 { return r.q[i].reads - r.q[i].readBase }

// Divergence returns how many consumed tokens the leading other replica
// is ahead of replica (1-based) by — the read-divergence quantity
// compared against DReads. Negative when the replica itself is ahead.
func (r *ReplicatorState) Divergence(replica int) int64 {
	i := replica - 1
	front := int64(math.MinInt64)
	for j := range r.q {
		if j != i {
			front = max(front, r.effReads(j))
		}
	}
	return front - r.effReads(i)
}

// Reintegrate re-arms replica's (1-based) queue after its fault has been
// repaired: the stale backlog is purged and replaced by a copy of the
// newest fill tokens of the leading healthy replica's queue (trimmed to
// the queue's own capacity minus one, so re-admission cannot itself trip
// queue-full), the consumption position is rebased to the re-armed
// content, and the conviction is cleared so the next fault is detected.
// graceReads read-divergence convictions involving this replica are
// excused while the transient position skew drains. Another replica
// must be healthy — it is the re-arm source; Reintegrate reports false
// and does nothing otherwise.
func (r *ReplicatorState) Reintegrate(replica int, fill int, graceReads int64) bool {
	i := r.index(replica)
	h := -1
	for j := range r.q {
		if j != i && !r.v[j].faulty && (h < 0 || r.effReads(j) > r.effReads(h)) {
			h = j
		}
	}
	if h < 0 {
		return false
	}
	q, src := &r.q[i], r.q[h].toks
	fill = max(min(fill, q.cap-1, len(src)), 0)
	q.purged += int64(len(q.toks))
	q.toks = append(q.toks[:0], src[len(src)-fill:]...)
	q.appended += int64(fill)
	q.maxFill = max(q.maxFill, fill)
	// Position-true rebase: holding the newest fill tokens of h's queue
	// means replica i has virtually consumed everything before them,
	// i.e. it sits len(src)-fill positions ahead of h.
	q.readBase = q.reads - (r.effReads(h) + int64(len(src)-fill))
	q.grace = graceReads
	q.slide = true
	r.reinstate(i)
	r.emit(ProbeReintegrate, replica, fill, 0)
	if fill > 0 {
		r.wake(WaitData, i)
	}
	return true
}

// TryWrite duplicates a token into every healthy queue. Only a Strict
// write can find no room; it then returns WaitSpace and changes nothing.
func (r *ReplicatorState) TryWrite(tok kpn.Token) WaitOn {
	if r.Strict {
		for i := range r.q {
			if len(r.q[i].toks) >= r.q[i].cap {
				return WaitSpace
			}
		}
	}
	// Fault detection at the replicator (§3.3): a full queue at write
	// time means its replica consumes slower than its design-time model
	// permits (eq. 3 guarantees this never happens fault-free). A Strict
	// write never gets here with a full queue, and never convicts.
	delivered := false
	for i := range r.q {
		if r.v[i].faulty {
			continue
		}
		q := &r.q[i]
		if len(q.toks) >= q.cap {
			if !q.slide {
				if convict, _ := r.sample(i, ReasonQueueFull, true); convict {
					r.flag(i, ReasonQueueFull)
					continue
				}
				// A forgiven overflow re-arms like the recovery slide:
				// drop the oldest token, keep the window contiguous and
				// position-true. The replica skips that token — masking
				// stays exact while another replica is the reference,
				// and the next re-integration heals the skew.
				r.emit(ProbeForgiven, i+1, len(q.toks), 0)
			}
			// Continuous re-arm until the first post-recovery read (or on
			// a policy-forgiven overflow): keep the newest contiguous
			// window, advancing the replica's virtual consumption
			// position past the dropped token.
			q.toks = q.toks[:copy(q.toks, q.toks[1:])]
			q.purged++
			q.readBase--
			r.emit(ProbeDropSlide, i+1, len(q.toks), 0)
		} else if r.policy != nil && !r.Strict {
			// Space available: a clean queue-overflow sample slides the
			// (m,k) window toward forgiveness.
			r.sample(i, ReasonQueueFull, false)
		}
		q.toks = append(q.toks, tok)
		q.appended++
		q.maxFill = max(q.maxFill, len(q.toks))
		if len(q.toks) == 1 {
			r.wake(WaitData, i) // a reader parks only on an empty queue
		}
		delivered = true
		if !r.Strict {
			r.emit(ProbeEnqueue, i+1, len(q.toks), 0)
		}
	}
	r.writes++
	if !delivered {
		r.lost++
	}
	r.emit(ProbeWrite, 0, 0, 0)
	if r.Strict {
		for i := range r.q {
			r.emit(ProbeEnqueue, i+1, len(r.q[i].toks), 0)
		}
	}
	if !delivered {
		r.emit(ProbeDropLost, 0, 0, 0)
	}
	return Proceed
}

// TryRead removes the head token of replica's (1-based) queue, or
// returns WaitData when the queue is empty.
func (r *ReplicatorState) TryRead(replica int) (tok kpn.Token, w WaitOn) {
	if q := &r.q[replica-1]; len(q.toks) > 0 {
		tok = q.toks[0]
		r.take(q, replica)
		return tok, Proceed
	}
	return tok, WaitData
}

// take drops the head token of replica's (1-based) queue q and runs the
// read-side bookkeeping and detection. TryRead copies the token out
// first, so the token itself never crosses a call.
func (r *ReplicatorState) take(q *repQueue, replica int) {
	i := replica - 1
	q.toks = q.toks[:copy(q.toks, q.toks[1:])]
	q.reads++
	q.slide = false
	if q.grace > 0 {
		q.grace--
	}
	r.emit(ProbeRead, replica, len(q.toks), 0)
	if r.Strict {
		r.wake(WaitSpace, 0)
	} else if d := r.DReads; d > 0 && q.grace == 0 {
		// Read-divergence detection: another replica lags if this one has
		// consumed D more tokens (positions rebased across
		// re-integration). Convictions involving a replica still inside
		// its re-integration grace are excused. Each evaluation is one
		// policy sample for the lagging side.
		for j := range r.q {
			if j != i && !r.v[j].faulty && r.q[j].grace == 0 {
				lead := r.effReads(i) - r.effReads(j)
				r.judge(j, ReasonDivergence, lead >= d, len(r.q[j].toks), lead)
			}
		}
	}
}

// CheckInvariants verifies the replicator's queue bookkeeping: per
// replica, fill = appended - reads - purged.
func (r *ReplicatorState) CheckInvariants() error {
	for i, q := range r.q {
		if want := q.appended - q.reads - q.purged; int64(len(q.toks)) != want {
			return fmt.Errorf("ft: replicator %q queue %d fill = %d, bookkeeping gives %d",
				r.name, i+1, len(q.toks), want)
		}
	}
	return nil
}

// Replicator is the replicator channel on the DES kernel: the core plus
// process-facing ports that park on des.Signal.
type Replicator struct {
	ReplicatorState
	k        *des.Kernel
	notEmpty []des.Signal
	notFull  des.Signal
	onRead   []func(now des.Time)
}

// NewReplicator builds a two-replica replicator channel with per-replica
// queue capacities (|R_1|, |R_2|) computed from eq. 3.
func NewReplicator(k *des.Kernel, name string, caps [2]int, handler FaultHandler) *Replicator {
	return NewNReplicator(k, name, caps[:], handler)
}

// NewNReplicator builds an n-way replicator (n = len(caps) >= 2): the
// paper's §1 generalization, tolerating up to n-1 faulty replicas with
// the same counter-only detection.
func NewNReplicator(k *des.Kernel, name string, caps []int, handler FaultHandler) *Replicator {
	r := &Replicator{k: k, notEmpty: make([]des.Signal, len(caps)), onRead: make([]func(des.Time), len(caps))}
	r.ReplicatorState = *NewReplicatorState(name, caps, k.Now, handler, func(w WaitOn, port int) { k.Broadcast(r.signal(w, port)) })
	return r
}

func (r *Replicator) signal(w WaitOn, port int) *des.Signal {
	if w == WaitData {
		return &r.notEmpty[port]
	}
	return &r.notFull
}

// SetReadHook registers a callback fired after each read by replica
// (1-based); external monitors (package detect) use it to observe the
// replica's consumption events.
func (r *Replicator) SetReadHook(replica int, fn func(now des.Time)) {
	r.onRead[replica-1] = fn
}

// tryWrite duplicates a token into all healthy queues, waiting only in
// Strict mode while some queue is full.
func (r *Replicator) tryWrite(tok kpn.Token) (des.Wait, bool) {
	if r.TryWrite(tok) != Proceed {
		return des.On(&r.notFull), false
	}
	return des.Wait{}, true
}

// tryRead removes the head token of queue i (0-based), waiting while it
// is empty.
func (r *Replicator) tryRead(i int) (kpn.Token, des.Wait, bool) {
	tok, w := r.TryRead(i + 1)
	if w != Proceed {
		return kpn.Token{}, des.On(&r.notEmpty[i]), false
	}
	if fn := r.onRead[i]; fn != nil {
		fn(r.k.Now())
	}
	return tok, des.Wait{}, true
}

// replicatorWriter is the producer-facing write interface.
type replicatorWriter struct{ r *Replicator }

// WriterPort returns the single write interface.
func (r *Replicator) WriterPort() kpn.WritePort { return replicatorWriter{r} }

func (w replicatorWriter) TryWrite(tok kpn.Token) (des.Wait, bool) { return w.r.tryWrite(tok) }
func (w replicatorWriter) Write(p *des.Proc, tok kpn.Token)        { kpn.WriteBlocking(p, w.TryWrite, tok) }
func (w replicatorWriter) PortName() string                        { return w.r.name + ".w" }

// replicatorReader is one replica-facing read interface.
type replicatorReader struct {
	r *Replicator
	i int
}

// ReaderPort returns the read interface for replica (1-based).
func (r *Replicator) ReaderPort(replica int) kpn.ReadPort {
	return replicatorReader{r: r, i: r.index(replica)}
}

func (rd replicatorReader) TryRead() (kpn.Token, des.Wait, bool) { return rd.r.tryRead(rd.i) }
func (rd replicatorReader) Read(p *des.Proc) kpn.Token           { return kpn.ReadBlocking(p, rd.TryRead) }
func (rd replicatorReader) PortName() string                     { return fmt.Sprintf("%s.r%d", rd.r.name, rd.i+1) }

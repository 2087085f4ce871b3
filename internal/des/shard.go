package des

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Sharded conservative parallel simulation (Chandy–Misra–Bryant with
// shared-memory null messages). A ShardedKernel wraps N independent
// Kernels, one per OS thread, connected by directed Links. Each link
// carries a lookahead L — a static guarantee that a message sent by the
// source shard at local time s is delivered at s+L at the earliest (in
// this repository L comes from a channel's RTC delay bound). The
// safe-time invariant is the classic one:
//
//	a shard may advance to H-1, where H = min over inbound links of
//	that link's clock — an inclusive lower bound on the delivery time
//	of every message the link will still produce.
//
// Null messages are not queued messages here: because the shards share
// memory, a link's clock is a single atomic the source publishes and
// the destination reads. A publication replaces the classic null
// message; a wake of a parked destination replaces its arrival
// interrupt.
//
// Message payloads travel separately, through caller-owned SPSC rings
// (TimedRing) drained by functions registered with RegisterDrain. The
// runner guarantees every drain callback runs with the destination
// kernel quiescent (between Run slices), and the protocol guarantees
// every drained message's timestamp is strictly beyond the kernel's
// current time, so cross-shard delivery can never reorder the past.
//
// Termination: an idle shard parks. The last parker runs a global
// horizon fixed point (a min-plus relaxation over the link graph) that
// either grants a blocked shard a larger horizon — this resolves relay
// chains through idle shards without the classic null-message
// avalanche — or proves global quiescence and ends the run.

// maxTime is the practical "infinite" horizon: far beyond any virtual
// time the simulations reach, with headroom so adding lookaheads
// cannot overflow int64.
const maxTime = Time(1) << 62

// Link is a directed synchronization edge between two shards. Its
// clock is the null-message channel: an inclusive lower bound on the
// delivery time of every message the source will still send. sent and
// recvd count payload messages so quiescence detection can prove no
// message is in flight.
type Link struct {
	sk        *ShardedKernel
	src, dst  int
	lookahead Time

	clock atomic.Int64 // published lower bound on future deliveries
	sent  atomic.Int64 // messages pushed by the source side
	recvd atomic.Int64 // messages drained by the destination side
}

// Src and Dst return the shard indices the link connects.
func (l *Link) Src() int { return l.src }
func (l *Link) Dst() int { return l.dst }

// Lookahead returns the link's static delivery lower bound.
func (l *Link) Lookahead() Time { return l.lookahead }

// Clock returns the link's current published horizon.
func (l *Link) Clock() Time { return l.clock.Load() }

// InFlight returns how many sent messages have not been drained yet.
func (l *Link) InFlight() int64 { return l.sent.Load() - l.recvd.Load() }

// NotifySent records one payload message pushed onto the link's
// transport. Call it after the ring push: the destination treats
// sent==recvd as "transport drained", so the counter must never lead
// the data.
func (l *Link) NotifySent() { l.sent.Add(1) }

// NotifyDrained records n payload messages consumed from the link's
// transport. Drain callbacks call it as they pop the ring.
func (l *Link) NotifyDrained(n int64) { l.recvd.Add(n) }

// StallWake reports a full-transport stall to the destination: it
// wakes the destination shard (so it drains) and counts the stall.
// The sending runner should yield and retry after calling it.
func (l *Link) StallWake() {
	l.sk.stalls.Add(1)
	l.sk.wakeShard(l.dst)
}

// shardState is the per-shard runner bookkeeping.
type shardState struct {
	k      *Kernel
	id     int
	in     []*Link
	out    []*Link
	drains []func(k *Kernel) int64
	chunk  Time // Run slice length; maxTime when the shard has no outbound links
	// through is the end of the last completed Run slice: every event at
	// or before it has been dispatched. It leads the kernel clock when
	// the queue ran dry inside a slice.
	through Time

	parked atomic.Bool  // runner is parking/parked (Dekker flag for wakers)
	lastH  atomic.Int64 // horizon the runner last read before draining
	grant  atomic.Int64 // horizon granted by the global fixed point

	parks atomic.Int64 // this shard's parks (also counted globally)
	wakes atomic.Int64 // wakes delivered to this shard (also counted globally)

	wake bool // under ShardedKernel.mu: a waker has work for this shard
}

// ShardStats aggregates the synchronization-protocol counters of one
// run: null-message clock publications, horizon grants from the global
// fixed point, parks, wakes of parked shards, payload messages drained,
// and full-transport stalls.
type ShardStats struct {
	NullMessages int64
	Grants       int64
	Parks        int64
	Wakes        int64
	Drained      int64
	Stalls       int64
}

// ShardedKernel runs N kernels in parallel under the conservative
// protocol above. Construction, Connect, RegisterDrain and process
// spawning happen single-threaded before Run; Run may be called
// repeatedly with growing limits, like Kernel.Run.
type ShardedKernel struct {
	shards []*shardState
	links  []*Link

	mu    sync.Mutex
	cond  *sync.Cond
	done  bool
	until Time
	panic any

	nulls   atomic.Int64
	grants  atomic.Int64
	parks   atomic.Int64
	wakes   atomic.Int64
	drained atomic.Int64
	stalls  atomic.Int64
}

// NewShardedKernel creates n kernels with the default event queue.
func NewShardedKernel(n int) *ShardedKernel {
	return NewShardedKernelWithQueue(n, defaultQueueKind)
}

// NewShardedKernelWithQueue creates n kernels using an explicit event
// queue implementation.
func NewShardedKernelWithQueue(n int, kind QueueKind) *ShardedKernel {
	if n <= 0 {
		panic(fmt.Sprintf("des: ShardedKernel needs at least one shard, got %d", n))
	}
	sk := &ShardedKernel{}
	sk.cond = sync.NewCond(&sk.mu)
	for i := 0; i < n; i++ {
		sk.shards = append(sk.shards, &shardState{k: NewKernelWithQueue(kind), id: i})
	}
	return sk
}

// NumShards returns the number of wrapped kernels.
func (sk *ShardedKernel) NumShards() int { return len(sk.shards) }

// Shard returns kernel i. Spawn processes and build channels on it
// before Run; during Run only its own runner touches it.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i].k }

// Connect declares that shard src sends timestamped messages to shard
// dst with the given lookahead (strictly positive, or the conservative
// protocol deadlocks — the kpn layer refuses zero-lookahead cuts
// before ever getting here). Multiple channels between the same shard
// pair should share one Link carrying their minimum lookahead.
func (sk *ShardedKernel) Connect(src, dst int, lookahead Time) *Link {
	if src == dst {
		panic(fmt.Sprintf("des: Connect(%d,%d): a link must cross shards", src, dst))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("des: Connect(%d,%d): lookahead must be positive, got %d", src, dst, lookahead))
	}
	l := &Link{sk: sk, src: src, dst: dst, lookahead: lookahead}
	// Initial promise: the source's clock starts at 0, so nothing can
	// be delivered before the lookahead itself.
	l.clock.Store(int64(lookahead))
	sk.links = append(sk.links, l)
	sk.shards[src].out = append(sk.shards[src].out, l)
	sk.shards[dst].in = append(sk.shards[dst].in, l)
	return l
}

// RegisterDrain installs fn on the destination shard. The runner calls
// it between Run slices with the shard's kernel quiescent; fn pops its
// transport ring(s), schedules the messages onto k (their stamps are
// strictly in k's future), calls Link.NotifyDrained, and returns how
// many messages it consumed.
func (sk *ShardedKernel) RegisterDrain(shard int, fn func(k *Kernel) int64) {
	s := sk.shards[shard]
	s.drains = append(s.drains, fn)
}

// Stats returns the accumulated protocol counters.
func (sk *ShardedKernel) Stats() ShardStats {
	return ShardStats{
		NullMessages: sk.nulls.Load(),
		Grants:       sk.grants.Load(),
		Parks:        sk.parks.Load(),
		Wakes:        sk.wakes.Load(),
		Drained:      sk.drained.Load(),
		Stalls:       sk.stalls.Load(),
	}
}

// ShardStat is one shard's view of the synchronization protocol: its
// own park/wake counts plus its current lookahead slack — how far the
// inbound link promises (the horizon) run ahead of the horizon the
// runner last adopted. Large slack means neighbours' lookahead keeps
// the shard well fed; slack pinned near zero marks the critical chain.
type ShardStat struct {
	Shard     int
	Parks     int64
	Wakes     int64
	Horizon   Time // min inbound promise, lifted by any global grant
	LastH     Time // horizon the runner last adopted
	Slack     Time // max(0, Horizon-LastH); meaningless when Unbounded
	Unbounded bool // no inbound links: the horizon is infinite
}

// PerShardStats snapshots every shard's ShardStat. Safe to call while
// Run is in flight — it reads only atomics (link clocks, grants,
// lastH), so a concurrent snapshot is a consistent-enough point-in-time
// view per field, exactly like Stats.
func (sk *ShardedKernel) PerShardStats() []ShardStat {
	out := make([]ShardStat, len(sk.shards))
	for i, s := range sk.shards {
		h := s.horizon()
		lh := Time(s.lastH.Load())
		st := ShardStat{
			Shard:   i,
			Parks:   s.parks.Load(),
			Wakes:   s.wakes.Load(),
			Horizon: h,
			LastH:   lh,
		}
		if len(s.in) == 0 || h >= maxTime {
			st.Unbounded = true
		} else if h > lh {
			st.Slack = h - lh
		}
		out[i] = st
	}
	return out
}

// Shutdown terminates all process goroutines on all shards. Call once
// after the final Run.
func (sk *ShardedKernel) Shutdown() {
	for _, s := range sk.shards {
		s.k.Shutdown()
	}
}

// Run executes all shards concurrently until global quiescence or
// until every shard's clock would pass `until` (non-positive = no
// limit). It returns the largest virtual time any shard reached. A
// panic inside any process is re-thrown.
func (sk *ShardedKernel) Run(until Time) Time {
	if until <= 0 {
		until = maxTime
	}
	sk.mu.Lock()
	sk.done = false
	sk.until = until
	for _, s := range sk.shards {
		s.wake = false
		s.parked.Store(false)
		// A grant is a promise derived from the fixed point of a prior
		// run, computed under that run's `until` cap: a shard that held
		// events beyond the cap looked inert to the fixed point, so the
		// promise can overshoot its next send. Stale grants must not
		// lift horizons in this run.
		s.grant.Store(0)
		s.through = s.k.Now()
		if s.chunk == 0 {
			s.chunk = chunkFor(s)
		}
	}
	sk.mu.Unlock()

	var wg sync.WaitGroup
	for _, s := range sk.shards {
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					sk.mu.Lock()
					if sk.panic == nil {
						sk.panic = v
					}
					sk.done = true
					sk.cond.Broadcast()
					sk.mu.Unlock()
				}
			}()
			sk.runShard(s, until)
		}(s)
	}
	wg.Wait()

	sk.mu.Lock()
	v := sk.panic
	sk.panic = nil
	sk.mu.Unlock()
	if v != nil {
		panic(v)
	}
	reached := Time(0)
	for _, s := range sk.shards {
		if t := s.k.Now(); t > reached {
			reached = t
		}
	}
	return reached
}

// chunkFor sizes a shard's Run slices: roughly four lookaheads of its
// tightest outbound link, so downstream shards overlap execution
// pipeline-style, floored to amortize the slice overhead. A shard with
// no outbound links never needs to publish progress and runs straight
// to its target.
func chunkFor(s *shardState) Time {
	if len(s.out) == 0 {
		return maxTime
	}
	minL := maxTime
	for _, l := range s.out {
		if l.lookahead < minL {
			minL = l.lookahead
		}
	}
	if c := 4 * minL; c > 64 {
		return c
	}
	return 64
}

// horizon computes the shard's current safe bound: the minimum inbound
// link clock, lifted by any fixed-point grant. A shard with no inbound
// links is bounded only by `until`.
func (s *shardState) horizon() Time {
	h := maxTime
	for _, l := range s.in {
		if c := Time(l.clock.Load()); c < h {
			h = c
		}
	}
	if g := Time(s.grant.Load()); g > h {
		h = g
	}
	return h
}

// publish stores lb+lookahead into every outbound clock that would
// strictly increase, waking parked destinations. lb is the shard's
// lower bound on its own next send time.
func (sk *ShardedKernel) publish(s *shardState, lb Time) {
	for _, l := range s.out {
		c := lb + l.lookahead
		if c > maxTime {
			c = maxTime
		}
		if c > Time(l.clock.Load()) {
			l.clock.Store(int64(c))
			sk.nulls.Add(1)
			// Dekker handshake: the clock store above is ordered before
			// this flag read, and the parker re-reads clocks after
			// setting the flag, so one side always sees the other.
			if sk.shards[l.dst].parked.Load() {
				sk.wakeShard(l.dst)
			}
		}
	}
}

// wakeShard marks the shard runnable and broadcasts. Safe from any
// goroutine.
func (sk *ShardedKernel) wakeShard(id int) {
	sk.mu.Lock()
	if !sk.shards[id].wake {
		sk.shards[id].wake = true
		sk.wakes.Add(1)
		sk.shards[id].wakes.Add(1)
		sk.cond.Broadcast()
	}
	sk.mu.Unlock()
}

// drain runs the shard's drain callbacks; the returned count also
// feeds the global Drained counter.
func (sk *ShardedKernel) drain(s *shardState) int64 {
	var n int64
	for _, fn := range s.drains {
		n += fn(s.k)
	}
	if n > 0 {
		sk.drained.Add(n)
	}
	return n
}

// inflight reports whether any inbound transport still holds messages.
// Without registered drains the counters can never reconcile, so links
// used purely for synchronization do not count.
func (s *shardState) inflight() bool {
	if len(s.drains) == 0 {
		return false
	}
	for _, l := range s.in {
		if l.sent.Load() != l.recvd.Load() {
			return true
		}
	}
	return false
}

// runWindow dispatches every event at or before target and returns the
// instant through which the kernel is done: target, or the clock if
// Stop was called. Unlike Kernel.Run, the limit is literal — target 0
// runs exactly the time-0 events, which a shard whose horizon is the
// minimum lookahead legitimately needs. The clock follows Run's rule:
// it moves to target only while events remain beyond it, so a shard
// that drains its queue keeps its last dispatched instant and a later
// Run schedules relative to it. Probing with target+1 keeps the bucket
// queue's clock at or below target+1, so cross-shard pushes at times
// >= target+1 (the protocol guarantees no earlier ones) stay valid.
func (k *Kernel) runWindow(target Time) Time {
	k.run(target+1, target)
	if k.stopped {
		return k.now
	}
	return target
}

// runShard is one shard's runner loop. Safety argument for every Run
// slice: the slice target is min(until, H-1) with H the horizon read
// BEFORE draining, so (a) events the slice dispatches are ≤ H-1, (b)
// any message a peer pushes after our clock read carries a stamp ≥ the
// clock value we read ≥ H > target — the queue clock never advances
// past a pending cross-shard delivery, preserving the bucket queue's
// push-after-early-exit contract.
func (sk *ShardedKernel) runShard(s *shardState, until Time) {
	k := s.k
	for {
		// Read the horizon first, then drain: messages pushed before
		// the clock reads are visible to the drain (the ring's tail
		// store precedes the clock publication), and messages pushed
		// after carry stamps ≥ the clocks just read.
		h := s.horizon()
		drained := sk.drain(s)
		s.lastH.Store(int64(h))

		target := until
		if h-1 < target {
			target = h - 1
		}

		// Execute the safe window in chunks, publishing progress after
		// each slice so downstream shards overlap with us. Dead space
		// (no events for many chunks) is skipped via the queue's
		// non-mutating bound. A target behind the last slice runs nothing.
		worked := drained > 0
		before := k.Dispatched()
		for k.Pending() > 0 && !k.Stopped() && target >= s.through {
			step := s.through + s.chunk
			if step < s.through { // overflow on an effectively infinite chunk
				step = target
			}
			if eb, ok := k.events.bound(); ok && eb > step {
				step = eb
			}
			if step > target {
				step = target
			}
			s.through = k.runWindow(step)
			// Future sends happen at ≥ through+1 (events ≤ through are
			// done; cross-shard arrivals are ≥ H ≥ through+1).
			sk.publish(s, s.through+1)
			if s.through >= target {
				break
			}
		}
		worked = worked || k.Dispatched() != before

		// Window exhausted. Publish the horizon remainder only after
		// real progress: an idle shard relaying every inbound clock
		// advance would feed a null-message avalanche around link
		// cycles (each relay grows the next horizon by one lookahead,
		// forever). Idle relays are the global fixed point's job.
		if k.Stopped() {
			sk.publish(s, maxTime)
		} else if worked && k.Pending() == 0 {
			// All local work done: the next send can only follow a
			// future inbound delivery, so it happens at ≥ h.
			sk.publish(s, h)
		}

		// Park attempt. Order matters: set the parked flag, THEN
		// re-check horizons and transports under the mutex, so (a) a
		// concurrent publisher or sender that missed the flag is
		// itself seen by the re-check (Dekker), and (b) a shard with
		// parked=true never mutates its kernel while a globalCheck
		// holding the mutex reads it.
		s.parked.Store(true)
		sk.mu.Lock()
		if (k.Pending() > 0 && s.horizon() > h) || s.inflight() || s.wake {
			s.wake = false
			s.parked.Store(false)
			sk.mu.Unlock()
			continue // something actionable arrived while we were finishing
		}
		sk.parks.Add(1)
		s.parks.Add(1)
		sk.globalCheck()
		for !sk.done && !s.wake {
			sk.cond.Wait()
		}
		if sk.done {
			sk.mu.Unlock()
			return
		}
		s.wake = false
		s.parked.Store(false)
		sk.mu.Unlock()
	}
}

// globalCheck runs with sk.mu held, by a runner that just parked. Over
// the stable subset of shards — parked with no pending wake, hence
// frozen while the mutex is held — it computes the horizon fixed point
//
//	x(S) = min( pendingBound(S), min over inbound links bound(link) )
//
// where pendingBound(S) = max(lastH, queue bound) if S has queued
// events, min'd with lastH if S has undrained inbound messages (their
// stamps are ≥ the horizon S last used), and +inf otherwise; and
// bound(link) is x(src)+L for a stable source but only the link's
// published clock for a running one (a running shard keeps its own
// clocks current, so the clock is the strongest stable fact about it).
// x(S) lower-bounds shard S's next activity, so the per-link bounds
// are valid new horizons. Any stable shard with work whose new horizon
// strictly grows gets it as a grant and is woken — this relays
// horizons through idle shards without eager null-message chains. When
// every shard is stable and nothing can be granted, the run is over.
func (sk *ShardedKernel) globalCheck() {
	n := len(sk.shards)
	stable := make([]bool, n)
	all := true
	for i, s := range sk.shards {
		stable[i] = s.parked.Load() && !s.wake
		all = all && stable[i]
	}
	x := make([]Time, n)
	for i, s := range sk.shards {
		x[i] = maxTime
		if !stable[i] {
			continue // never read a running shard's kernel
		}
		if s.k.Pending() > 0 && !s.k.Stopped() {
			// Events all lie at ≥ max(lastH, queue bound): the shard
			// already ran to lastH-1, and the queue bound sees past
			// the horizon so far-future events don't force the fixed
			// point through one lookahead-sized step per round. When
			// the run cap, not the horizon, was the binding target the
			// shard only ran to `until`, so the honest claim is
			// min(lastH, until+1).
			b := Time(s.lastH.Load())
			if b > sk.until+1 {
				b = sk.until + 1
			}
			if eb, ok := s.k.events.bound(); ok && eb > b {
				b = eb
			}
			x[i] = b
		}
		if s.inflight() {
			if lh := Time(s.lastH.Load()); lh < x[i] {
				x[i] = lh
			}
		}
		// A running upstream neighbor can deliver as early as its
		// link's published clock.
		for _, l := range s.in {
			if !stable[l.src] {
				if c := Time(l.clock.Load()); c < x[i] {
					x[i] = c
				}
			}
		}
	}
	for range sk.shards { // Bellman–Ford over ≤ n-1 relaxation rounds
		changed := false
		for _, l := range sk.links {
			if !stable[l.src] || !stable[l.dst] {
				continue
			}
			if v := x[l.src] + l.lookahead; v < x[l.dst] {
				x[l.dst] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	granted := false
	for i, s := range sk.shards {
		if !stable[i] {
			continue
		}
		pending := (s.k.Pending() > 0 && !s.k.Stopped()) || s.inflight()
		if !pending || Time(s.lastH.Load()) > sk.until {
			continue // nothing to run, or already done to the limit
		}
		newH := maxTime
		for _, l := range s.in {
			var b Time
			if stable[l.src] {
				b = x[l.src] + l.lookahead
				if b > maxTime {
					b = maxTime
				}
				if c := Time(l.clock.Load()); c > b {
					b = c // both are valid bounds; take the stronger
				}
			} else {
				b = Time(l.clock.Load())
			}
			if b < newH {
				newH = b
			}
		}
		if newH > Time(s.lastH.Load()) {
			s.grant.Store(int64(newH))
			s.wake = true
			granted = true
			sk.grants.Add(1)
		}
	}
	if granted {
		sk.cond.Broadcast()
		return
	}
	if all {
		sk.done = true
		sk.cond.Broadcast()
	}
}

// ---------------------------------------------------------------------------
// Canonical merged traces: the bit-identity contract between a sharded
// run and the single-kernel oracle.
// ---------------------------------------------------------------------------

// TraceCollector records the process-level scheduler events of one or
// more kernels and serializes them into a canonical byte form that is
// invariant under partitioning: per-process event order is preserved
// (it is fully determined by the Kahn network's semantics), kernel
// callbacks are excluded (their count and order are scheduling
// artifacts of the transport, not of the application), and concurrent
// per-kernel streams are merged by (time, process, per-process index).
type TraceCollector struct {
	streams [][]traceRec // one slice per attached kernel; no locking needed
}

type traceRec struct {
	at   Time
	proc string
	kind string
}

// NewTraceCollector returns an empty collector.
func NewTraceCollector() *TraceCollector { return &TraceCollector{} }

// Attach installs the collector as kernel k's tracer. Each kernel gets
// its own stream, so kernels on different shards may trace
// concurrently.
func (tc *TraceCollector) Attach(k *Kernel) {
	idx := len(tc.streams)
	tc.streams = append(tc.streams, nil)
	k.Trace(func(e TraceEvent) {
		if e.Proc == "" {
			return // kernel callback or stop: transport artifact
		}
		tc.streams[idx] = append(tc.streams[idx], traceRec{at: e.At, proc: e.Proc, kind: e.Kind})
	})
}

// Bytes returns the canonical serialized trace.
func (tc *TraceCollector) Bytes() []byte {
	type keyed struct {
		traceRec
		idx int // per-(at,proc) arrival index within its own stream
	}
	var all []keyed
	for _, st := range tc.streams {
		seq := make(map[string]int, 8)
		for _, r := range st {
			all = append(all, keyed{r, seq[r.proc]})
			seq[r.proc]++
		}
	}
	slices.SortFunc(all, func(a, b keyed) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.proc != b.proc {
			if a.proc < b.proc {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	var out []byte
	for _, r := range all {
		out = fmt.Appendf(out, "%d %s %s\n", r.at, r.proc, r.kind)
	}
	return out
}

package des

import "math/bits"

// eventQueue is the kernel's pending-event set, ordered by (at, seq).
//
// next reports the earliest event's time. With limit > 0 it may answer
// ok=false ("nothing at or before limit") without computing the exact
// minimum, and it promises that any internal reorganization stays
// consistent with later pushes at times > limit — the kernel relies on
// that after an early Run(until) exit. With limit <= 0 it returns the
// exact minimum, and the caller must pop it before pushing anything
// earlier. pop returns the minimum event or nil when empty.
type eventQueue interface {
	push(e *event)
	next(limit Time) (Time, bool)
	pop() *event
	len() int
}

// QueueKind selects the kernel's event-queue implementation.
type QueueKind int

const (
	// QueueBucket is the integer-tick bucket (hierarchical timing-wheel)
	// queue: O(1) amortized push/pop, no interface boxing, FIFO within a
	// tick by construction.
	QueueBucket QueueKind = iota
	// QueueHeap is the reference binary heap ordered by (at, seq), kept
	// as the oracle the bucket queue is property-tested against.
	QueueHeap
)

// newQueue builds an event queue of the given kind.
func newQueue(kind QueueKind) eventQueue {
	if kind == QueueHeap {
		return &heapQueue{h: make([]*event, 0, 64)}
	}
	return newBucketQueue()
}

// ---------------------------------------------------------------------------
// Bucket queue: a hierarchical timing wheel over integer ticks.
//
// Level l has 64 slots of width 64^l ticks, so six levels cover deltas up
// to 64^6 ≈ 6.9e10 ticks (~19 virtual hours) ahead of the queue's clock;
// rarer events park on an overflow list. Each slot is an intrusive FIFO
// list chained through event.next (the same link the kernel's freelist
// uses — an event is never in both). A per-level occupancy bitmap plus
// rotate+TrailingZeros finds the next non-empty slot in O(1), so empty
// ticks cost nothing regardless of how sparse the schedule is.
//
// Dequeue order equals the heap's (at, seq) order without comparing seq:
//   - within one tick, events sit in one level-0 slot in push order;
//   - an event cascading down from level l was pushed with a strictly
//     larger delta — hence strictly earlier, with a smaller seq — than
//     any same-tick event resident at a lower level, so cascades and
//     overflow migrations prepend (as a block, order preserved) while
//     fresh pushes append.
// ---------------------------------------------------------------------------

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits                 // 64
	wheelLevels = 6                              // covers deltas < 64^6
	farDelta    = 1 << (wheelBits * wheelLevels) // overflow threshold
)

// slotList is an intrusive FIFO of events chained through event.next.
type slotList struct {
	head, tail *event
}

type bucketQueue struct {
	cur   Time // queue clock: no queued event is earlier
	n     int
	slots [wheelLevels][wheelSlots]slotList
	occ   [wheelLevels]uint64 // occupancy bitmaps

	// far holds events the wheel cannot index from its current clock:
	// delta >= farDelta, or slot-aliased (the event's slot at every
	// level wide enough for its delta is a full wheel turn ahead). Kept
	// in push order.
	far    []*event
	farMin Time
}

func newBucketQueue() *bucketQueue {
	return &bucketQueue{farMin: 1<<63 - 1}
}

func (q *bucketQueue) len() int { return q.n }

// levelFor returns the wheel level for a non-negative delta < farDelta.
func levelFor(delta Time) int {
	if delta < wheelSlots {
		return 0
	}
	return (bits.Len64(uint64(delta)) - 1) / wheelBits
}

// wheelLevel returns the level where an event at time `at` can be
// indexed from the current clock, or ok=false when it must park on the
// overflow list. Starting from levelFor(delta), a level is usable only
// when the event's block is less than a full turn ahead of the clock's
// block; otherwise the slot index would alias onto the current turn
// (same slot, one turn later) and candidate() would report a block the
// event is not in. Bumping one level always resolves the alias (the
// block distance shrinks 64-fold), so the loop runs at most twice.
func (q *bucketQueue) wheelLevel(at Time) (int, bool) {
	delta := at - q.cur
	if delta >= farDelta {
		return 0, false
	}
	for l := levelFor(delta); l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		if (at>>shift)-(q.cur>>shift) < wheelSlots {
			return l, true
		}
	}
	return 0, false
}

// insert places e at the right level for its delta from the queue clock.
// Cascades and migrations set prepend, keeping same-tick FIFO order.
func (q *bucketQueue) insert(e *event, prepend bool) {
	l, onWheel := q.wheelLevel(e.at)
	if !onWheel {
		if prepend {
			q.far = append([]*event{e}, q.far...)
		} else {
			q.far = append(q.far, e)
		}
		if e.at < q.farMin {
			q.farMin = e.at
		}
		return
	}
	s := (e.at >> uint(wheelBits*l)) & (wheelSlots - 1)
	sl := &q.slots[l][s]
	if prepend {
		e.next = sl.head
		sl.head = e
		if sl.tail == nil {
			sl.tail = e
		}
	} else {
		e.next = nil
		if sl.tail == nil {
			sl.head = e
		} else {
			sl.tail.next = e
		}
		sl.tail = e
	}
	q.occ[l] |= 1 << uint(s)
}

func (q *bucketQueue) push(e *event) {
	q.insert(e, false)
	q.n++
}

// candidate returns the earliest possible event time indicated by level
// l's bitmap: the exact tick for level 0, the block start otherwise.
// ok is false when the level is empty.
func (q *bucketQueue) candidate(l int) (Time, bool) {
	bm := q.occ[l]
	if bm == 0 {
		return 0, false
	}
	shift := uint(wheelBits * l)
	pos := uint((q.cur >> shift) & (wheelSlots - 1))
	k := bits.TrailingZeros64(bits.RotateLeft64(bm, -int(pos)))
	return ((q.cur >> shift) + Time(k)) << shift, true
}

// cascade empties the level-l slot starting at block time bs, advancing
// the clock to the block and re-inserting its events one level (or more)
// down. The reversed walk plus prepending keeps same-tick FIFO order.
func (q *bucketQueue) cascade(l int, bs Time) {
	if bs > q.cur {
		q.cur = bs
	}
	s := (bs >> (wheelBits * l)) & (wheelSlots - 1)
	e := q.slots[l][s].head
	q.slots[l][s] = slotList{}
	q.occ[l] &^= 1 << uint(s)
	// Reverse the list in place, then prepend one by one: net effect is
	// a block-prepend into each destination slot with order preserved.
	var rev *event
	for e != nil {
		next := e.next
		e.next = rev
		rev = e
		e = next
	}
	for rev != nil {
		next := rev.next
		q.insert(rev, true)
		rev = next
	}
}

// migrate moves overflow events now indexable from the clock onto the
// wheel.
func (q *bucketQueue) migrate() {
	if q.n == len(q.far) {
		// The wheel is empty: jump the clock to the overflow front so
		// at least its earliest event becomes placeable (delta zero).
		q.cur = q.farMin
	}
	var eligible []*event
	keep := q.far[:0]
	for _, e := range q.far {
		if _, ok := q.wheelLevel(e.at); ok {
			eligible = append(eligible, e)
		} else {
			keep = append(keep, e)
		}
	}
	for i := len(keep); i < len(q.far); i++ {
		q.far[i] = nil
	}
	q.far = keep
	q.farMin = 1<<63 - 1
	for _, e := range q.far {
		if e.at < q.farMin {
			q.farMin = e.at
		}
	}
	for i := len(eligible) - 1; i >= 0; i-- {
		q.insert(eligible[i], true)
	}
}

// next reorganizes until the globally earliest event heads a level-0
// slot and returns its time, advancing the queue clock to it. With a
// positive limit it stops — mutating nothing further — as soon as the
// minimum candidate exceeds the limit: candidates are lower bounds on
// their events' times, so the earliest event is past the limit too, and
// every clock advance so far was to a candidate <= limit, which keeps
// later pushes in (limit, min] valid.
func (q *bucketQueue) next(limit Time) (Time, bool) {
	if q.n == 0 {
		return 0, false
	}
	const inf = Time(1<<63 - 1)
	for {
		// Find the minimum candidate across levels; ties go to the highest
		// level (and the overflow list before any level), so lower-seq
		// events are always in place before a tick is popped.
		minT := inf
		cascadeL := -1
		for l := 1; l < wheelLevels; l++ {
			if bs, ok := q.candidate(l); ok && (bs < minT || (bs == minT && l > cascadeL)) {
				minT, cascadeL = bs, l
			}
		}
		if t0, ok := q.candidate(0); ok && t0 < minT {
			minT, cascadeL = t0, 0
		}
		useFar := len(q.far) > 0 && q.farMin <= minT
		if useFar {
			minT = q.farMin
		}
		if limit > 0 && minT > limit {
			return 0, false
		}
		if useFar {
			q.migrate()
			continue
		}
		if cascadeL != 0 {
			q.cascade(cascadeL, minT)
			continue
		}
		if q.cur < minT {
			q.cur = minT
		}
		return minT, true
	}
}

func (q *bucketQueue) pop() *event {
	t, ok := q.next(0)
	if !ok {
		return nil
	}
	s := t & (wheelSlots - 1)
	sl := &q.slots[0][s]
	e := sl.head
	sl.head = e.next
	if sl.head == nil {
		sl.tail = nil
		q.occ[0] &^= 1 << uint(s)
	}
	e.next = nil
	q.n--
	return e
}

// ---------------------------------------------------------------------------
// Heap queue: the reference implementation. A plain binary heap ordered
// by (at, seq), with typed sift routines instead of container/heap so no
// event is boxed into an interface on the hot path.
// ---------------------------------------------------------------------------

type heapQueue struct {
	h []*event
}

func (q *heapQueue) len() int { return len(q.h) }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *heapQueue) push(e *event) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *heapQueue) next(limit Time) (Time, bool) {
	if len(q.h) == 0 || (limit > 0 && q.h[0].at > limit) {
		return 0, false
	}
	return q.h[0].at, true
}

func (q *heapQueue) pop() *event {
	n := len(q.h)
	if n == 0 {
		return nil
	}
	top := q.h[0]
	q.h[0] = q.h[n-1]
	q.h[n-1] = nil
	q.h = q.h[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(q.h[l], q.h[small]) {
			small = l
		}
		if r < n && eventLess(q.h[r], q.h[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
	return top
}

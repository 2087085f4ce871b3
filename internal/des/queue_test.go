package des

import (
	"math/rand"
	"slices"
	"testing"
)

// orderOracle is the reference for eventQueue's order: events kept in
// push order and popped as a stable sort by time would order them.
type orderOracle []event

// first returns the index of the earliest event, the first pushed among
// equals.
func (o orderOracle) first() int {
	m := 0
	for i := range o {
		if o[i].at < o[m].at {
			m = i
		}
	}
	return m
}

// queueCheck drives an eventQueue and the oracle through the same ops
// and fails on the first divergence.
type queueCheck struct {
	t   testing.TB
	q   eventQueue
	o   orderOracle
	seq uint64
}

func (c *queueCheck) push(at Time) {
	e := event{at: at, seq: c.seq, fn: func() {}}
	c.seq++
	c.q.push(e)
	c.o = append(c.o, e)
}

// pop pops both and returns the popped time, or ok=false when both are
// empty.
func (c *queueCheck) pop() (at Time, ok bool) {
	c.t.Helper()
	if len(c.q) != len(c.o) {
		c.t.Fatalf("len %d, oracle %d", len(c.q), len(c.o))
	}
	if len(c.o) == 0 {
		return 0, false
	}
	m := c.o.first()
	want := c.o[m]
	c.o = slices.Delete(c.o, m, m+1)
	if got := c.q.pop(); got.at != want.at || got.seq != want.seq {
		c.t.Fatalf("pop (at=%d seq=%d), oracle (at=%d seq=%d)", got.at, got.seq, want.at, want.seq)
	}
	return want.at, true
}

// peek checks the head the kernel's run-limit probe reads: q[0] must be
// the oracle's next event.
func (c *queueCheck) peek() {
	c.t.Helper()
	if len(c.o) == 0 {
		if len(c.q) != 0 {
			c.t.Fatalf("len %d, oracle empty", len(c.q))
		}
		return
	}
	if got, want := c.q[0], c.o[c.o.first()]; got.at != want.at || got.seq != want.seq {
		c.t.Fatalf("peek (at=%d seq=%d), oracle (at=%d seq=%d)", got.at, got.seq, want.at, want.seq)
	}
}

// drain pops both to exhaustion, then requires the heap's backing array
// to hold no callback a popped event left behind.
func (c *queueCheck) drain() {
	c.t.Helper()
	for _, ok := c.pop(); ok; _, ok = c.pop() {
	}
	for i, e := range c.q[:cap(c.q)] {
		if e.fn != nil || e.proc != nil {
			c.t.Fatalf("drained queue still references slot %d's event", i)
		}
	}
}

// TestEventQueueMatchesOracle drives the heap and the oracle with
// randomized push/peek/pop streams (same-tick bursts, long jumps and
// pushes behind the last pop) and requires identical dequeue order, the
// property that keeps every simulation bit-identical.
func TestEventQueueMatchesOracle(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 7))
		c := &queueCheck{t: t}
		now := Time(0)
		steps := 200 + rng.Intn(400)
		for s := 0; s < steps; s++ {
			switch op := rng.Intn(10); {
			case op < 5: // a short delay
				c.push(now + Time(rng.Intn(20)))
			case op < 7: // a same-tick burst, mixed with a few later events
				at := now + Time(rng.Intn(5))
				for b := 0; b < 2+rng.Intn(6); b++ {
					c.push(at)
					if rng.Intn(3) == 0 {
						c.push(at + Time(rng.Intn(100000)))
					}
				}
			case op < 8: // far ahead, or behind the last pop
				c.push(now + Time(rng.Int63n(1<<40)) - 1<<39)
			default: // pop a few, advancing the virtual clock
				for p := 0; p < 1+rng.Intn(4); p++ {
					if at, ok := c.pop(); ok {
						now = at
					}
				}
			}
			c.peek()
		}
		c.drain()
	}
}

// TestRunUntilKeepsQueueOrder pins the peek-based run limit: stopping a
// kernel mid-schedule and resuming must not reorder same-tick events.
func TestRunUntilKeepsQueueOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 4; i++ {
		k.At(10, func() { got = append(got, i) })
	}
	k.At(5, func() { got = append(got, -1) })
	if at := k.Run(7); at != 7 {
		t.Fatalf("Run(7) settled at %d", at)
	}
	k.Run(0)
	if want := []int{-1, 0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("callback order %v, want %v", got, want)
	}
}

// TestEventDispatchZeroAllocs pins the 0 allocs/op property of warm
// event dispatch: once the queue's backing array has grown to the
// resident set, scheduling allocates nothing.
func TestEventDispatchZeroAllocs(t *testing.T) {
	k := NewKernel()
	var n int
	var tick func()
	tick = func() {
		if n > 0 {
			n--
			k.After(1, tick)
		}
	}
	n = 64
	k.After(1, tick)
	k.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		n = 50
		k.After(1, tick)
		k.Run(0)
	})
	if allocs > 0 {
		t.Fatalf("warm kernel allocated %.1f times per 50-event run, want 0", allocs)
	}
}

// TestFreelistReuse pins slot reuse in the queue's backing array: warm
// runs with the same resident set recycle the slots pop vacates instead
// of growing the array, and every vacated slot is cleared so the heap
// keeps no callback or process alive after its event has run.
func TestFreelistReuse(t *testing.T) {
	k := NewKernel()
	var n int
	var tick func()
	tick = func() {
		if n > 0 {
			n--
			k.After(1, tick)
		}
	}
	burst := func() {
		for i := 0; i < 40; i++ {
			k.After(Time(i%7), func() {})
		}
		n = 50
		k.After(1, tick)
		k.Run(0)
	}
	burst()
	warm := cap(k.events)
	for r := 0; r < 100; r++ {
		burst()
		if c := cap(k.events); c != warm {
			t.Fatalf("run %d: backing array cap %d, want the warm %d", r, c, warm)
		}
	}
	if len(k.events) != 0 {
		t.Fatalf("%d events left after Run(0)", len(k.events))
	}
	for i, e := range k.events[:warm] {
		if e.fn != nil || e.proc != nil {
			t.Fatalf("vacated slot %d still holds an event", i)
		}
	}
}

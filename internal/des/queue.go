package des

// eventQueue is the kernel's pending-event set: a binary min-heap
// ordered by (at, seq), holding events by value. Its backing array is
// the events' only storage, so once it has grown to the run's resident
// set, scheduling allocates nothing. The kernel peeks at the earliest
// event as q[0].
type eventQueue []event

// before orders events by time, then FIFO by push sequence.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// push adds e, sifting a hole up from the end to e's place.
func (q *eventQueue) push(e event) {
	h := append(*q, event{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event; q must not be empty. The
// last element refills the hole the minimum leaves, sifted down.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback and process for the GC
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].before(&h[c]) {
				c++
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

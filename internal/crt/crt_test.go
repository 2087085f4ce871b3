package crt

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftpn/internal/ft"
	"ftpn/internal/obs"
)

// fakeClock is a manually advanced clock for deterministic tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}
func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestFIFOConcurrentOrder(t *testing.T) {
	f := NewFIFO("c", 4)
	const n = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= n; i++ {
			want, ok := f.Read()
			if !ok || want.Seq != i {
				t.Errorf("read %d: got %v ok=%v", i, want.Seq, ok)
				return
			}
		}
	}()
	for i := int64(1); i <= n; i++ {
		if !f.Write(Token{Seq: i}) {
			t.Fatal("write failed")
		}
	}
	<-done
	if f.MaxFill() > 4 {
		t.Errorf("MaxFill = %d exceeds capacity", f.MaxFill())
	}
	if f.Fill() != 0 {
		t.Errorf("Fill = %d, want 0", f.Fill())
	}
}

func TestFIFOCloseUnblocks(t *testing.T) {
	f := NewFIFO("c", 1)
	writeOK := make(chan bool, 1)
	go func() {
		f.Write(Token{Seq: 1})
		writeOK <- f.Write(Token{Seq: 2}) // full: blocks until close
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close()
	if <-writeOK {
		t.Error("blocked write must fail after close")
	}
	// Reads drain the remaining token, then report closed.
	if tok, ok := f.Read(); !ok || tok.Seq != 1 {
		t.Errorf("drain read = %v %v", tok.Seq, ok)
	}
	if _, ok := f.Read(); ok {
		t.Error("read after drain on closed FIFO should report !ok")
	}
	if f.Name() != "c" {
		t.Error("name accessor broken")
	}
}

func TestFIFOBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewFIFO("c", 0)
}

func TestReplicatorConcurrentFanOut(t *testing.T) {
	clock := NewWallClock()
	// The replicator convicts instead of blocking the producer (§3.3),
	// so an unpaced producer needs queues sized for the whole burst.
	const n = 500
	r := NewReplicator(clock, "R", [2]int{n, n}, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for rep := 1; rep <= 2; rep++ {
		rep := rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= n; i++ {
				tok, ok := r.Read(rep)
				if !ok || tok.Seq != i {
					errs <- "order violated"
					return
				}
			}
		}()
	}
	for i := int64(1); i <= n; i++ {
		r.Write(Token{Seq: i})
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	if ok, _ := r.Faulty(1); ok {
		t.Error("healthy run convicted replica 1")
	}
}

func TestReplicatorQueueFullConviction(t *testing.T) {
	clock := &fakeClock{}
	var faults []Fault
	var mu sync.Mutex
	r := NewReplicator(clock, "R", [2]int{2, 8}, func(f Fault) {
		mu.Lock()
		faults = append(faults, f)
		mu.Unlock()
	})
	clock.Sleep(5 * time.Millisecond)
	// Nobody reads queue 1: third write convicts replica 1 and never blocks.
	done := make(chan struct{})
	go func() {
		for i := int64(1); i <= 5; i++ {
			r.Write(Token{Seq: i})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("producer blocked on a faulty replica")
	}
	ok, at := r.Faulty(1)
	if !ok || at != 5*time.Millisecond {
		t.Errorf("Faulty(1) = %v at %v", ok, at)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(faults) != 1 || faults[0].Reason != "queue-full" || faults[0].Replica != 1 || faults[0].Kind != ft.KindTiming {
		t.Errorf("faults = %+v", faults)
	}
}

func TestReplicatorCloseUnblocksReader(t *testing.T) {
	r := NewReplicator(NewWallClock(), "R", [2]int{2, 2}, nil)
	done := make(chan bool)
	go func() {
		_, ok := r.Read(2)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	r.Close()
	if ok := <-done; ok {
		t.Error("closed read should report !ok")
	}
	if r.Write(Token{}) {
		t.Error("write after close should fail")
	}
}

func TestSelectorConcurrentDedup(t *testing.T) {
	clock := NewWallClock()
	s := NewSelector(clock, "S", [2]int{16, 16}, [2]int{0, 0}, 0, nil)
	const n = 400
	var wg sync.WaitGroup
	for rep := 1; rep <= 2; rep++ {
		rep := rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= n; i++ {
				s.Write(rep, Token{Seq: i, Payload: []byte{byte(i)}})
			}
		}()
	}
	var got int64
	var lastSeq int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := int64(1); i <= n; i++ {
			tok, ok := s.Read()
			if !ok {
				return
			}
			if tok.Seq != lastSeq+1 {
				t.Errorf("sequence gap: %d after %d", tok.Seq, lastSeq)
				return
			}
			lastSeq = tok.Seq
			atomic.AddInt64(&got, 1)
		}
	}()
	wg.Wait()
	<-readerDone
	if got != n {
		t.Fatalf("consumer got %d tokens, want %d", got, n)
	}
	if s.Drops(1)+s.Drops(2) != n {
		t.Errorf("total drops = %d, want %d (every pair has one late copy)", s.Drops(1)+s.Drops(2), n)
	}
}

// TestSelectorConcurrentFlightMetrics feeds one flight stream and its
// metrics sink from two writer goroutines and a reader: the counts must
// equal the selector's own counters.
func TestSelectorConcurrentFlightMetrics(t *testing.T) {
	s := NewSelector(NewWallClock(), "S", [2]int{16, 16}, [2]int{0, 0}, 0, nil)
	reg := obs.NewRegistry()
	st := obs.NewFlightRecorder(64).Stream(0) // wraps: the counts must not
	st.SetMetrics(reg)
	s.RecordFlight(st)
	const n = 400
	var wg sync.WaitGroup
	for rep := 1; rep <= 2; rep++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			for i := int64(1); i <= n; i++ {
				s.Write(rep, Token{Seq: i})
			}
		}(rep)
	}
	for i := 0; i < n; i++ {
		if _, ok := s.Read(); !ok {
			t.Fatal("selector closed early")
		}
	}
	wg.Wait()
	events := func(replica int, kind string) int64 {
		return reg.Counter("ftpn_flight_events_total", "", obs.Labels{
			"channel": "S", "replica": strconv.Itoa(replica), "kind": kind}).Value()
	}
	for rep := 1; rep <= 2; rep++ {
		enq, dup := events(rep, "enqueue"), events(rep, "drop-duplicate")
		if enq+dup != s.Writes(rep) || dup != s.Drops(rep) {
			t.Errorf("interface %d: enqueue %d + duplicate %d, engine writes %d drops %d",
				rep, enq, dup, s.Writes(rep), s.Drops(rep))
		}
	}
	if got := events(0, "read"); got != n {
		t.Errorf("reads = %d, want %d", got, n)
	}
}

func TestSelectorDivergenceConviction(t *testing.T) {
	clock := &fakeClock{}
	var fault atomic.Value
	s := NewSelector(clock, "S", [2]int{16, 16}, [2]int{0, 0}, 3, func(f Fault) { fault.Store(f) })
	clock.Sleep(time.Millisecond)
	for i := int64(1); i <= 3; i++ {
		s.Write(1, Token{Seq: i})
	}
	f, _ := fault.Load().(Fault)
	if f.Replica != 2 || f.Reason != "divergence" || f.At != time.Millisecond || f.Kind != ft.KindTiming {
		t.Errorf("fault = %+v", f)
	}
	if ok, _, reason := s.Faulty(2); !ok || reason != "divergence" {
		t.Errorf("Faulty(2) = %v %s", ok, reason)
	}
}

func TestSelectorConsumerStallConviction(t *testing.T) {
	s := NewSelector(NewWallClock(), "S", [2]int{2, 2}, [2]int{0, 0}, 0, nil)
	for i := int64(1); i <= 3; i++ {
		s.Write(1, Token{Seq: i})
		s.Read()
	}
	if ok, _, reason := s.Faulty(2); !ok || reason != "consumer-stall" {
		t.Errorf("silent replica 2 not convicted: %v %s", ok, reason)
	}
	if ok, _, _ := s.Faulty(1); ok {
		t.Error("active replica 1 wrongly convicted")
	}
}

func TestSelectorInitialTokens(t *testing.T) {
	s := NewSelector(NewWallClock(), "S", [2]int{4, 6}, [2]int{2, 3}, 0, nil)
	if s.MaxFill() != 3 {
		t.Errorf("initial fill = %d, want 3", s.MaxFill())
	}
	for i := 0; i < 3; i++ {
		tok, ok := s.Read()
		if !ok || tok.Seq > 0 {
			t.Fatalf("preloaded token %d: %v %v", i, tok.Seq, ok)
		}
	}
}

func TestSelectorIsolationUnderContention(t *testing.T) {
	// Writer 2 stalls completely; writer 1 must never block as long as
	// the consumer keeps reading (its own space is the only constraint).
	s := NewSelector(NewWallClock(), "S", [2]int{2, 2}, [2]int{0, 0}, 0, nil)
	done := make(chan struct{})
	go func() {
		for i := int64(1); i <= 100; i++ {
			s.Write(1, Token{Seq: i})
		}
		close(done)
	}()
	go func() {
		for {
			if _, ok := s.Read(); !ok {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("writer 1 blocked despite consumer progress (isolation violated)")
	}
	s.Close()
}

func TestSelectorCloseUnblocks(t *testing.T) {
	s := NewSelector(NewWallClock(), "S", [2]int{1, 1}, [2]int{0, 0}, 0, nil)
	readerOK := make(chan bool)
	go func() {
		_, ok := s.Read()
		readerOK <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	if <-readerOK {
		t.Error("closed empty read should report !ok")
	}
	if s.Write(1, Token{}) {
		t.Error("write after close should fail")
	}
}

func TestChannelValidationPanics(t *testing.T) {
	clock := NewWallClock()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("rep caps", func() { NewReplicator(clock, "R", [2]int{0, 2}, nil) })
	mustPanic("sel caps", func() { NewSelector(clock, "S", [2]int{0, 2}, [2]int{0, 0}, 0, nil) })
	mustPanic("sel inits", func() { NewSelector(clock, "S", [2]int{2, 2}, [2]int{3, 0}, 0, nil) })
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if b < a+time.Millisecond/2 {
		t.Errorf("clock did not advance: %v -> %v", a, b)
	}
	c.Sleep(-5) // negative sleep is a no-op
}

func TestFaultString(t *testing.T) {
	f := Fault{Channel: "S", Replica: 1, At: 2 * time.Millisecond, Reason: "divergence"}
	if f.String() != "S: replica R1 faulty at 2ms (divergence)" {
		t.Errorf("String = %q", f.String())
	}
}

// TestReplicatorReintegrate convicts replica 1 by queue-full, then
// re-integrates it and checks the re-armed queue mirrors the healthy
// backlog and detection is re-armed.
func TestReplicatorReintegrate(t *testing.T) {
	r := NewReplicator(&fakeClock{}, "R", [2]int{2, 8}, nil)
	for i := int64(1); i <= 5; i++ {
		r.Write(Token{Seq: i}) // nobody reads queue 1: convicts at write 3
	}
	if ok, _ := r.Faulty(1); !ok {
		t.Fatal("replica 1 not convicted")
	}
	if !r.Reintegrate(1, 1) {
		t.Fatal("Reintegrate refused despite healthy replica 2")
	}
	if ok, _ := r.Faulty(1); ok {
		t.Error("replica 1 still convicted after re-integration")
	}
	if got := r.Fill(1); got != 1 {
		t.Errorf("re-armed fill = %d, want 1", got)
	}
	// The re-armed token is the newest from the healthy backlog.
	if tok, ok := r.Read(1); !ok || tok.Seq != 5 {
		t.Errorf("re-armed token = %v ok=%v, want Seq 5", tok.Seq, ok)
	}
	// Detection is re-armed: filling queue 1 again re-convicts.
	for i := int64(6); i <= 9; i++ {
		r.Write(Token{Seq: i})
	}
	if ok, _ := r.Faulty(1); !ok {
		t.Error("queue-full detection not re-armed after re-integration")
	}
	r.Close()
}

// TestSelectorReintegrate runs the full resync protocol single-threaded
// (deterministically): convict replica 2 by divergence, keep replica 1
// streaming, re-integrate 2 with a stale + aligned token sequence, and
// verify the consumer stream stays gapless while conviction clears.
func TestSelectorReintegrate(t *testing.T) {
	s := NewSelector(&fakeClock{}, "S", [2]int{8, 8}, [2]int{0, 0}, 3, nil)
	// Replica 2 silent: replica 1's third write convicts it (divergence,
	// before any read can trip the stall rule).
	for i := int64(1); i <= 4; i++ {
		s.Write(1, Token{Seq: i})
	}
	for i := 0; i < 4; i++ {
		s.Read()
	}
	if ok, _, reason := s.Faulty(2); !ok || reason != "divergence" {
		t.Fatalf("Faulty(2) = %v %s, want divergence conviction", ok, reason)
	}
	if s.Reintegrate(1) {
		t.Error("Reintegrate(1) should refuse: replica 2 is not a healthy reference")
	}
	if !s.Reintegrate(2) {
		t.Fatal("Reintegrate(2) refused despite healthy replica 1")
	}
	// Stale tokens (Seq < healthy front 4) are dropped uncounted; Seq 4
	// aligns as the late duplicate of the current pair, Seq 5 arbitrates
	// normally as first-of-next-pair and is enqueued.
	for i := int64(2); i <= 5; i++ {
		s.Write(2, Token{Seq: i})
	}
	if s.Resyncing(2) {
		t.Error("replica 2 still resyncing after alignment token")
	}
	if got := s.ResyncDrops(2); got != 2 {
		t.Errorf("resync drops = %d, want 2 (Seq 2..3 stale)", got)
	}
	if ok, _, _ := s.Faulty(2); ok {
		t.Error("replica 2 still convicted after alignment")
	}
	// Both replicas stream on; consumer sees a gapless sequence.
	want := int64(5)
	if tok, ok := s.Read(); !ok || tok.Seq != want {
		t.Fatalf("post-recovery token = %v ok=%v, want Seq %d", tok.Seq, ok, want)
	}
	for i := int64(6); i <= 9; i++ {
		s.Write(1, Token{Seq: i})
		s.Write(2, Token{Seq: i})
		tok, ok := s.Read()
		if !ok || tok.Seq != i {
			t.Fatalf("token after recovery = %v ok=%v, want Seq %d", tok.Seq, ok, i)
		}
	}
	// Redundancy restored: pair accounting sees replica 2 participating.
	if s.Drops(1)+s.Drops(2) == 0 {
		t.Error("no late duplicates dropped after recovery: replica 2 not arbitrating")
	}
	s.Close()
}

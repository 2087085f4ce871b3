package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// oracleRec pairs an event with its per-(stream, channel) arrival index.
type oracleRec struct {
	ev  FlightEvent
	idx int
}

// oracleMerged is the straightforward canonical merge: clone each
// stream's retained events oldest→newest from its flattened ring,
// number each channel's events per stream with a map, and sort by (at,
// channel, index, shard, seq). FlightRecorder.merged must produce
// exactly this order.
func oracleMerged(fr *FlightRecorder) []oracleRec {
	fr.mu.Lock()
	streams := slices.Clone(fr.streams)
	fr.mu.Unlock()
	var all []oracleRec
	for _, s := range streams {
		s.mu.Lock()
		ring := slices.Concat(s.chunks...) // the ring as one slice, index 0 first
		next := s.next
		s.mu.Unlock()
		n := uint64(len(ring))
		var evs []FlightEvent
		if next <= n {
			evs = ring[:next]
		} else {
			head := next % n
			evs = append(slices.Clone(ring[head:]), ring[:head]...)
		}
		idx := make(map[string]int, 8)
		for _, ev := range evs {
			all = append(all, oracleRec{ev: ev, idx: idx[ev.Channel]})
			idx[ev.Channel]++
		}
	}
	slices.SortFunc(all, func(a, b oracleRec) int {
		if a.ev.At != b.ev.At {
			return int(a.ev.At - b.ev.At)
		}
		if a.ev.Channel != b.ev.Channel {
			if a.ev.Channel < b.ev.Channel {
				return -1
			}
			return 1
		}
		if a.idx != b.idx {
			return a.idx - b.idx
		}
		if a.ev.Shard != b.ev.Shard {
			return a.ev.Shard - b.ev.Shard
		}
		return int(a.ev.Seq) - int(b.ev.Seq)
	})
	return all
}

// oracleBytes renders the canonical serialization with fmt, one
// Fprintf per event: the format FlightRecorder.Bytes must reproduce.
func oracleBytes(fr *FlightRecorder) []byte {
	var buf bytes.Buffer
	for _, r := range oracleMerged(fr) {
		ev := r.ev
		fmt.Fprintf(&buf, "%d %s %s %s %d %d %d\n",
			ev.At, oracleDash(ev.Channel), oracleDash(ev.Kind), oracleDash(ev.Reason),
			ev.Replica, ev.Fill, ev.Aux)
	}
	return buf.Bytes()
}

func oracleDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// checkAgainstOracle fails unless Bytes, Events, Tail, Len and Dropped
// agree with the oracle merge and renderer.
func checkAgainstOracle(t *testing.T, fr *FlightRecorder, recorded int) {
	t.Helper()
	want := oracleMerged(fr)
	wantEvs := make([]FlightEvent, len(want))
	for i, r := range want {
		wantEvs[i] = r.ev
	}
	if got, w := fr.Bytes(), oracleBytes(fr); !bytes.Equal(got, w) {
		t.Fatalf("Bytes:\n%s\noracle:\n%s", got, w)
	}
	if got := fr.Events(); !reflect.DeepEqual(got, wantEvs) {
		t.Fatalf("Events = %+v\noracle %+v", got, wantEvs)
	}
	for _, n := range []int{0, 1, 3, len(wantEvs) + 1} {
		wantTail := wantEvs
		if n > 0 && n < len(wantEvs) {
			wantTail = wantEvs[len(wantEvs)-n:]
		}
		if got := fr.Tail(n); !reflect.DeepEqual(got, wantTail) {
			t.Fatalf("Tail(%d) = %+v\noracle %+v", n, got, wantTail)
		}
	}
	if fr.Len() != len(wantEvs) || fr.Len()+int(fr.Dropped()) != recorded {
		t.Fatalf("Len/Dropped = %d/%d, want %d retained of %d recorded", fr.Len(), fr.Dropped(), len(wantEvs), recorded)
	}
}

// FuzzFlightBytes records a fuzzed event script, repeated up to 32
// times, into 1–3 streams of a recorder whose cap of 1–160 events spans
// up to three ring chunks (so rings wrap or not, inside a chunk or
// across chunks) and compares every view with the oracle. Events draw
// from a few channels, kinds and reasons, including empty ones, with
// small signed At (many ties) and signed Aux.
func FuzzFlightBytes(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(0), []byte{})
	f.Add(uint8(2), uint8(3), uint8(0), []byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add(uint8(3), uint8(16), uint8(1), bytes.Repeat([]byte{7, 200, 13, 255, 0, 1, 128}, 20))
	f.Add(uint8(3), uint8(2), uint8(3), bytes.Repeat([]byte{0xff, 0, 0x80, 1, 2, 3, 4}, 9))
	f.Add(uint8(1), uint8(129), uint8(31), []byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Add(uint8(2), uint8(63), uint8(20), bytes.Repeat([]byte{0x40, 9, 1, 2, 0x81, 5, 6}, 3))
	channels := []string{"", "A_in", "B_out", "C"}
	kinds := []string{"", "write", "read", FlightConvict}
	reasons := []string{"", "queue-full", "divergence"}
	f.Fuzz(func(t *testing.T, nStreams, capPerStream, repeat uint8, script []byte) {
		fr := NewFlightRecorder(1 + int(capPerStream)%(5*flightChunk/2))
		sts := make([]*FlightStream, 1+int(nStreams%3))
		for i := range sts {
			sts[i] = fr.Stream(i)
		}
		const evBytes = 7
		recorded := 0
		for r := 0; r <= int(repeat%32); r++ {
			for rest := script; len(rest) >= evBytes; rest = rest[evBytes:] {
				b := rest[:evBytes]
				sts[int(b[0]>>6)%len(sts)].Record(FlightEvent{
					At:      int64(r) + int64(int8(b[1]))/4,
					Channel: channels[b[0]&3],
					Kind:    kinds[(b[0]>>2)&3],
					Reason:  reasons[int((b[0]>>4)&3)%len(reasons)],
					Replica: int(int8(b[2])),
					Fill:    int(b[3]),
					Aux:     int64(int32(binary.LittleEndian.Uint32(b[3:7]))) * 1e6,
				})
				recorded++
			}
		}
		checkAgainstOracle(t, fr, recorded)
	})
}

func TestFlightNilSafety(t *testing.T) {
	var fr *FlightRecorder
	if st := fr.Stream(0); st != nil {
		t.Fatal("nil recorder must hand out a nil stream")
	}
	var st *FlightStream
	st.Record(FlightEvent{At: 1, Kind: "write"}) // must not panic
	if fr.Len() != 0 || fr.Dropped() != 0 || len(fr.Events()) != 0 || len(fr.Tail(5)) != 0 {
		t.Fatal("nil recorder must read as empty")
	}
	if got := fr.Bytes(); len(got) != 0 {
		t.Fatalf("nil recorder Bytes = %q, want empty", got)
	}
}

func TestFlightStreamStampsShardAndSeq(t *testing.T) {
	fr := NewFlightRecorder(8)
	st := fr.Stream(3)
	st.Record(FlightEvent{At: 10, Channel: "A", Kind: "write", Shard: 99, Seq: 99})
	st.Record(FlightEvent{At: 20, Channel: "A", Kind: "read"})
	evs := fr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	for i, ev := range evs {
		if ev.Shard != 3 {
			t.Errorf("event %d shard = %d, want 3 (caller-supplied value must be overwritten)", i, ev.Shard)
		}
		if ev.Seq != uint64(i) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i)
		}
	}
}

func TestFlightRingWrapAndDropped(t *testing.T) {
	fr := NewFlightRecorder(4)
	st := fr.Stream(0)
	for i := 0; i < 10; i++ {
		st.Record(FlightEvent{At: int64(i), Channel: "C", Kind: "write"})
	}
	if got := fr.Len(); got != 4 {
		t.Fatalf("len = %d, want ring cap 4", got)
	}
	if got := fr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := fr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.At != want {
			t.Fatalf("event %d at = %d, want %d (oldest retained first)", i, ev.At, want)
		}
	}
}

// TestFlightDefaultCapRetains: a recorder made with cap 0 keeps the
// last DefaultFlightCap events of a stream and counts the rest as
// dropped.
func TestFlightDefaultCapRetains(t *testing.T) {
	fr := NewFlightRecorder(0)
	st := fr.Stream(0)
	const extra = 5
	for i := 0; i < DefaultFlightCap+extra; i++ {
		st.Record(FlightEvent{At: int64(i), Channel: "C", Kind: "write"})
	}
	if fr.Len() != DefaultFlightCap || fr.Dropped() != extra {
		t.Fatalf("len/dropped = %d/%d, want %d/%d", fr.Len(), fr.Dropped(), DefaultFlightCap, extra)
	}
	if evs := fr.Events(); evs[0].At != extra || evs[len(evs)-1].At != DefaultFlightCap+extra-1 {
		t.Fatalf("retained At %d..%d, want %d..%d", evs[0].At, evs[len(evs)-1].At, extra, DefaultFlightCap+extra-1)
	}
}

// TestFlightShortRunAllocs: a run that records 10 events on a
// 65,536-event recorder pays for one ring chunk, not for the cap: the
// recorder, its stream list, the stream, its chunk list and the chunk.
func TestFlightShortRunAllocs(t *testing.T) {
	run := func() {
		st := NewFlightRecorder(1 << 16).Stream(0)
		for i := 0; i < 10; i++ {
			st.Record(FlightEvent{At: int64(i), Channel: "C", Kind: "write"})
		}
	}
	if allocs := testing.AllocsPerRun(100, run); allocs > 5 {
		t.Fatalf("10-event run allocates %.0f times, want at most 5", allocs)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8<<10 {
		t.Fatalf("10-event run allocates %d B, want at most 8 KiB", per)
	}
}

// TestFlightCanonicalMerge is the determinism core: the same logical
// event set, recorded into differently-partitioned streams, must merge
// to byte-identical canonical output. Each channel's events go to
// exactly one stream (the one-channel-one-stream contract), and the
// partitions interleave their Record calls differently.
func TestFlightCanonicalMerge(t *testing.T) {
	channels := []string{"A_in", "B_out", "C_in", "D_out"}
	var logical []FlightEvent
	rng := rand.New(rand.NewSource(42))
	at := int64(0)
	for i := 0; i < 400; i++ {
		if rng.Intn(3) != 0 {
			at += int64(rng.Intn(4)) // many same-instant events
		}
		logical = append(logical, FlightEvent{
			At:      at,
			Channel: channels[rng.Intn(len(channels))],
			Kind:    "write",
			Replica: 1 + rng.Intn(2),
			Fill:    rng.Intn(8),
		})
	}

	render := func(streamOf func(ch string) int, nStreams int) []byte {
		fr := NewFlightRecorder(0)
		sts := make([]*FlightStream, nStreams)
		for s := range sts {
			sts[s] = fr.Stream(s)
		}
		// Per-channel order is preserved (it is the canonical order);
		// different stream counts interleave the streams differently.
		for _, ev := range logical {
			sts[streamOf(ev.Channel)].Record(ev)
		}
		return fr.Bytes()
	}

	want := render(func(string) int { return 0 }, 1)
	if len(want) == 0 {
		t.Fatal("canonical rendering is empty")
	}
	for nStreams := 2; nStreams <= 8; nStreams++ {
		n := nStreams
		got := render(func(ch string) int {
			h := 0
			for _, c := range ch {
				h = h*31 + int(c)
			}
			return h % n
		}, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ between 1 and %d streams:\n1 stream:\n%s\n%d streams:\n%s",
				n, want, n, got)
		}
	}
}

// TestFlightSharedChannelOrder covers the merge outside the
// one-channel-one-stream contract: two streams, created in the reverse
// order of their emitter tags, record the same channel at the same
// instants. Arrival index orders first, then emitter, then seq.
func TestFlightSharedChannelOrder(t *testing.T) {
	fr := NewFlightRecorder(0)
	late, early := fr.Stream(1), fr.Stream(0)
	for i, kind := range []string{"a", "b", "c"} {
		late.Record(FlightEvent{At: 5, Channel: "X", Kind: "late-" + kind, Replica: i})
		early.Record(FlightEvent{At: 5, Channel: "X", Kind: "early-" + kind, Replica: i})
	}
	late.Record(FlightEvent{At: 5, Channel: "W", Kind: "late-w"})
	checkAgainstOracle(t, fr, 7)
	var kinds []string
	for _, ev := range fr.Events() {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"late-w", "early-a", "late-a", "early-b", "late-b", "early-c", "late-c"}
	if !slices.Equal(kinds, want) {
		t.Fatalf("merged kinds = %v, want %v", kinds, want)
	}
}

func TestFlightTail(t *testing.T) {
	fr := NewFlightRecorder(0)
	st := fr.Stream(0)
	for i := 0; i < 10; i++ {
		st.Record(FlightEvent{At: int64(i), Channel: "C", Kind: "write"})
	}
	tail := fr.Tail(3)
	if len(tail) != 3 || tail[0].At != 7 || tail[2].At != 9 {
		t.Fatalf("Tail(3) = %+v, want last three", tail)
	}
	if got := fr.Tail(0); len(got) != 10 {
		t.Fatalf("Tail(0) = %d events, want all 10", len(got))
	}
	if got := fr.Tail(100); len(got) != 10 {
		t.Fatalf("Tail(100) = %d events, want all 10", len(got))
	}
}

// TestFlightHammer is the -race proof: concurrent emitters on separate
// streams, a shared stream, and concurrent readers of every view.
func TestFlightHammer(t *testing.T) {
	fr := NewFlightRecorder(1 << 10)
	shared := fr.Stream(0)
	const writers, perW = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fr.Stream(w + 1)
			for i := 0; i < perW; i++ {
				own.Record(FlightEvent{At: int64(i), Channel: fmt.Sprintf("c%d", w), Kind: "write"})
				shared.Record(FlightEvent{At: int64(i), Channel: "shared", Kind: "read"})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			fr.Events()
			fr.Bytes()
			fr.Tail(16)
			fr.Len()
			fr.Dropped()
		}
	}()
	wg.Wait()
	<-done
	if got := fr.Len() + int(fr.Dropped()); got != 2*writers*perW {
		t.Fatalf("retained+dropped = %d, want %d", got, 2*writers*perW)
	}
}

// TestFlightRecordDisabledAllocs pins the acceptance criterion that a
// disabled recorder (nil stream) allocates nothing on the probe path.
func TestFlightRecordDisabledAllocs(t *testing.T) {
	var st *FlightStream
	ev := FlightEvent{At: 1, Channel: "C", Kind: "write", Fill: 3}
	if allocs := testing.AllocsPerRun(1000, func() { st.Record(ev) }); allocs != 0 {
		t.Fatalf("disabled Record allocates %.1f per op, want 0", allocs)
	}
}

// TestFlightRecordEnabledAllocs pins the steady-state hot path: once
// the ring has grown to its cap, an enabled Record is also alloc-free.
func TestFlightRecordEnabledAllocs(t *testing.T) {
	fr := NewFlightRecorder(1 << 8)
	st := fr.Stream(0)
	ev := FlightEvent{At: 1, Channel: "C", Kind: "write", Fill: 3}
	for i := 0; i < 1<<8; i++ {
		st.Record(ev)
	}
	if allocs := testing.AllocsPerRun(1000, func() { st.Record(ev) }); allocs != 0 {
		t.Fatalf("enabled Record allocates %.1f per op, want 0", allocs)
	}
}

// TestFlightLenDroppedAllocs pins that counting the log copies no ring.
func TestFlightLenDroppedAllocs(t *testing.T) {
	fr := NewFlightRecorder(4)
	for e := 0; e < 3; e++ {
		st := fr.Stream(e)
		for i := 0; i < 10; i++ {
			st.Record(FlightEvent{At: int64(i), Channel: "C", Kind: "write"})
		}
	}
	if fr.Len() != 12 || fr.Dropped() != 18 {
		t.Fatalf("len/dropped = %d/%d, want 12/18", fr.Len(), fr.Dropped())
	}
	if allocs := testing.AllocsPerRun(100, func() { fr.Len(); fr.Dropped() }); allocs != 0 {
		t.Fatalf("Len+Dropped allocate %.1f per call, want 0", allocs)
	}
}

// metricsLog is one conviction-and-recovery arc on a replicator "R".
func metricsLog() []FlightEvent {
	return []FlightEvent{
		{At: 1, Kind: FlightInject, Reason: "stop-all", Replica: 2},
		{At: 2, Channel: "R", Kind: "write"},
		{At: 2, Channel: "R", Kind: "enqueue", Replica: 1, Fill: 1},
		{At: 2, Channel: "R", Kind: "enqueue", Replica: 2, Fill: 4},
		{At: 3, Channel: "R", Kind: "read", Replica: 1, Fill: 0},
		{At: 4, Channel: "R", Kind: FlightConvict, Reason: "queue-full", Replica: 2, Fill: 4, Aux: 1},
		{At: 9, Channel: "R", Kind: "reintegrate", Replica: 2, Fill: 1},
		{At: 9, Channel: "R", Kind: FlightRecover, Reason: "queue-full", Replica: 2, Fill: 4, Aux: 5000},
	}
}

// TestFlightMetricsCountEveryEvent checks the registry view of a stream:
// exact counts by (channel, replica, kind) that survive ring
// wrap-around, the fill of the last enqueue/read, convictions by reason
// and recoveries with their latency.
func TestFlightMetricsCountEveryEvent(t *testing.T) {
	reg := NewRegistry()
	st := NewFlightRecorder(2).Stream(0) // wraps many times
	st.SetMetrics(reg)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, ev := range metricsLog() {
			st.Record(ev)
		}
	}
	count := func(l Labels) int64 { return reg.Counter(flightEventsTotal, "", l).Value() }
	if got := count(Labels{"channel": "R", "replica": "2", "kind": "enqueue"}); got != rounds {
		t.Errorf("enqueue R2 = %d, want %d", got, rounds)
	}
	if got := count(Labels{"channel": "R", "replica": "0", "kind": "write"}); got != rounds {
		t.Errorf("write = %d, want %d", got, rounds)
	}
	if got := count(Labels{"channel": "", "replica": "2", "kind": FlightInject}); got != rounds {
		t.Errorf("inject = %d, want %d", got, rounds)
	}
	if got := reg.Gauge(flightFill, "", Labels{"channel": "R", "replica": "1"}).Value(); got != 0 {
		t.Errorf("fill R1 = %d, want 0 (after the read)", got)
	}
	if got := reg.Gauge(flightFill, "", Labels{"channel": "R", "replica": "2"}).Value(); got != 4 {
		t.Errorf("fill R2 = %d, want 4 (reintegrate and convict do not move it)", got)
	}
	conv := reg.Counter(flightConvictionsTotal, "", Labels{"channel": "R", "replica": "2", "reason": "queue-full"})
	if conv.Value() != rounds {
		t.Errorf("convictions = %d, want %d", conv.Value(), rounds)
	}
	if got := reg.Counter(flightRecoveriesTotal, "", Labels{"replica": "2"}).Value(); got != rounds {
		t.Errorf("recoveries = %d, want %d", got, rounds)
	}
	lat := reg.Histogram(flightRecoveryLatency, "", nil, nil)
	if lat.Count() != rounds || lat.Sum() != rounds*5000 {
		t.Errorf("latency count/sum = %d/%d, want %d/%d", lat.Count(), lat.Sum(), rounds, rounds*5000)
	}
	// Removing the sink stops the counts; the ring keeps recording.
	st.SetMetrics(nil)
	st.Record(FlightEvent{Channel: "R", Kind: "write"})
	if got := count(Labels{"channel": "R", "replica": "0", "kind": "write"}); got != rounds {
		t.Errorf("write after SetMetrics(nil) = %d, want %d", got, rounds)
	}
}

// TestFlightMetricsAllocs pins the sink's steady state: once an event's
// series are resolved, recording it allocates nothing.
func TestFlightMetricsAllocs(t *testing.T) {
	st := NewFlightRecorder(1 << 8).Stream(0)
	st.SetMetrics(NewRegistry())
	log := metricsLog()
	for _, ev := range log {
		st.Record(ev)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, ev := range log {
			st.Record(ev)
		}
	}); allocs != 0 {
		t.Fatalf("metered Record allocates %.1f per %d events, want 0", allocs, len(log))
	}
}

// TestFlightMetricsHammer is the sink's -race proof: goroutines record
// into a shared metered stream and into their own streams feeding the
// same registry while readers scrape it.
func TestFlightMetricsHammer(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(1 << 6)
	shared := fr.Stream(0)
	shared.SetMetrics(reg)
	const writers, perW = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fr.Stream(w + 1)
			own.SetMetrics(reg)
			for i := 0; i < perW; i++ {
				own.Record(FlightEvent{At: int64(i), Channel: "R", Kind: "enqueue", Replica: 1 + w%2, Fill: i % 4})
				shared.Record(FlightEvent{At: int64(i), Channel: "S", Kind: "read", Fill: i % 8})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf bytes.Buffer
		for i := 0; i < 20; i++ {
			buf.Reset()
			reg.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	<-done
	count := func(l Labels) int64 { return reg.Counter(flightEventsTotal, "", l).Value() }
	if got := count(Labels{"channel": "S", "replica": "0", "kind": "read"}); got != writers*perW {
		t.Errorf("shared reads = %d, want %d", got, writers*perW)
	}
	enq := count(Labels{"channel": "R", "replica": "1", "kind": "enqueue"}) +
		count(Labels{"channel": "R", "replica": "2", "kind": "enqueue"})
	if enq != writers*perW {
		t.Errorf("enqueues = %d, want %d", enq, writers*perW)
	}
}

func BenchmarkFlightRecordDisabled(b *testing.B) {
	var st *FlightStream
	ev := FlightEvent{At: 1, Channel: "C", Kind: "write", Fill: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Record(ev)
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	fr := NewFlightRecorder(1 << 16)
	st := fr.Stream(0)
	ev := FlightEvent{At: 1, Channel: "C", Kind: "write", Fill: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.At = int64(i)
		st.Record(ev)
	}
}

// BenchmarkFlightBytes renders a one-stream log shaped like a generated
// network's run: 600 events over 8 channels in nondecreasing time with
// many same-instant ties.
func BenchmarkFlightBytes(b *testing.B) {
	fr := NewFlightRecorder(1 << 11)
	st := fr.Stream(0)
	rng := rand.New(rand.NewSource(1))
	channels := []string{"src_out", "a_in", "a_out", "b_in", "b_out", "c_in", "c_out", "sink_in"}
	at := int64(0)
	for i := 0; i < 600; i++ {
		if rng.Intn(3) == 0 {
			at += int64(rng.Intn(5000))
		}
		st.Record(FlightEvent{At: at, Channel: channels[rng.Intn(len(channels))], Kind: "write",
			Replica: 1 + rng.Intn(2), Fill: rng.Intn(4), Aux: int64(rng.Intn(3))})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr.Bytes()
	}
}

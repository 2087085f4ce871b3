package obs

import (
	"slices"
	"strconv"
	"sync"
)

// Flight-recorder event kinds recorded by layers above the channels.
// Channel events use the ft.ProbeKind strings verbatim
// ("write", "read", "drop-duplicate", "forgiven", "drop-value", ...);
// the constants below are the extra lifecycle kinds the harnesses and
// the recovery manager add around them.
const (
	// FlightInject marks a fault injection (harness-recorded): Reason
	// holds the fault mode ("stop-all", "corrupt", ...), Replica the
	// injected replica, At the injection instant.
	FlightInject = "inject"
	// FlightConvict marks a conviction (recorded by the channel inside
	// the convicting operation): Reason holds the fault reason
	// ("queue-full", "divergence", "consumer-stall", "value-divergence"),
	// Fill the queue fill and Aux the divergence sampled at conviction
	// time.
	FlightConvict = "convict"
	// FlightRecover marks a completed recovery (recover.Manager): Aux
	// holds the conviction→recovered latency in µs.
	FlightRecover = "recover"
)

// FlightEvent is one structured record in the flight log. At is the
// timestamp in µs (virtual under the simulator, wall-clock in crt);
// Shard and Seq identify the emitter (the stream's tag, see
// FlightRecorder.Stream) and the arrival order in which the event was
// captured (transport metadata — excluded from the canonical
// serialization, see Bytes). Channel names the
// arbitration channel (or the process, for kernel-sourced events), and
// Aux carries a kind-specific payload: selector lead for channel events,
// divergence for convictions, recovery latency for recover events.
type FlightEvent struct {
	At      int64  `json:"at_us"`
	Shard   int    `json:"shard"`
	Seq     uint64 `json:"seq"`
	Channel string `json:"channel,omitempty"`
	Kind    string `json:"kind"`
	Reason  string `json:"reason,omitempty"`
	Replica int    `json:"replica"`
	Fill    int    `json:"fill"`
	Aux     int64  `json:"aux,omitempty"`
}

// FlightStream is one bounded single-writer-ordered event ring inside a
// FlightRecorder. Each emitter (a system's channels, a harness) records
// into its own stream; Record is mutex-guarded so wall-clock
// (crt) emitters may also share one stream across goroutines.
//
// A nil *FlightStream is a no-op on Record: recording disabled costs
// one predicted branch per event site and zero allocations, matching
// the registry's nil-metric idiom.
type FlightStream struct {
	mu      sync.Mutex
	emitter int
	chunks  [][]FlightEvent // the ring, allocated chunk by chunk as it fills
	limit   int             // ring capacity in events
	head    int             // ring index of the next event
	next    uint64          // events ever recorded; also the next seq
	metrics *flightMetrics
}

// flightChunk is the number of events in one ring chunk (6 KB): a
// stream allocates chunks as events arrive, so a short run pays for the
// events it records rather than for the recorder's cap, and a filling
// ring never copies what it holds.
const flightChunk = 64

// Record appends ev to the stream, stamping its emitter and sequence
// number, and updates the stream's metrics (SetMetrics). The ring is
// bounded: it grows on demand up to the recorder's per-stream cap, and
// once full the oldest event is overwritten (and counted as dropped).
// Record allocates only when the ring grows by a chunk: the event is
// copied by value.
func (s *FlightStream) Record(ev FlightEvent) {
	if s == nil {
		return
	}
	s.mu.Lock()
	ev.Shard = s.emitter
	ev.Seq = s.next
	c := s.head / flightChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]FlightEvent, min(flightChunk, s.limit-s.head)))
	}
	s.chunks[c][s.head%flightChunk] = ev
	if s.head++; s.head == s.limit {
		s.head = 0
	}
	s.next++
	if s.metrics != nil {
		s.metrics.observe(&ev)
	}
	s.mu.Unlock()
}

// SetMetrics installs the stream's registry view (nil removes it):
// every event recorded from then on also updates the flight metric
// families in reg (see flightMetrics). Unlike the ring, the counts
// never wrap. Several streams may feed one registry. Install it before
// arming the channels, which Declare their series. A nil stream is a
// no-op.
func (s *FlightStream) SetMetrics(reg *Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.metrics = newFlightMetrics(reg)
	s.mu.Unlock()
}

// Declare pre-registers the event series of channel for every kind
// given and replicas 0..replicas, so a scrape shows zero counts before
// the first event, as Prometheus expects. It is a no-op on a stream
// without metrics: install them (SetMetrics) before arming emitters.
func (s *FlightStream) Declare(channel string, replicas int, kinds ...string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metrics == nil {
		return
	}
	for r := 0; r <= replicas; r++ {
		for _, k := range kinds {
			s.metrics.lookup(flightKey{channel: channel, kind: k, replica: r})
		}
	}
}

// counts returns how many events the stream retains and how many the
// ring has overwritten.
func (s *FlightStream) counts() (retained int, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained(), s.next - uint64(s.retained())
}

// retained returns how many events the ring holds; s.mu must be held.
func (s *FlightStream) retained() int {
	if s.next < uint64(s.limit) {
		return int(s.next)
	}
	return s.limit
}

// appendEvents appends the retained events oldest→newest to evs and
// their merge keys to keys, numbering each channel's events in arrival
// order. chans is scratch space for those counts, reused across
// streams.
func (s *FlightStream) appendEvents(evs []FlightEvent, keys []mergeKey, chans []chanCount) ([]FlightEvent, []mergeKey, []chanCount) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.retained()
	i := 0 // ring index of the oldest event
	if n == s.limit {
		i = s.head
	}
	chans = chans[:0]
	for ; n > 0; n-- {
		ev := &s.chunks[i/flightChunk][i%flightChunk]
		var idx int
		idx, chans = nextIndex(chans, ev.Channel)
		keys = append(keys, mergeKey{at: ev.At, channel: ev.Channel, idx: int32(idx), pos: int32(len(evs))})
		evs = append(evs, *ev)
		if i++; i == s.limit {
			i = 0
		}
	}
	return evs, keys, chans
}

// chanCount is how many events of one channel a stream has yielded.
type chanCount struct {
	channel string
	n       int
}

// nextIndex returns channel's next arrival index and bumps its count.
// A stream carries a system's few channels, so a scan beats hashing
// every event.
func nextIndex(chans []chanCount, channel string) (int, []chanCount) {
	for i := range chans {
		if chans[i].channel == channel {
			chans[i].n++
			return chans[i].n - 1, chans
		}
	}
	return 0, append(chans, chanCount{channel: channel, n: 1})
}

// DefaultFlightCap is the per-stream ring capacity when
// NewFlightRecorder is given 0.
const DefaultFlightCap = 1 << 16

// FlightRecorder is the bounded structured event log: a set of
// per-emitter streams whose merged view is deterministic in virtual
// time. The merge key is (time, channel, per-channel arrival index), so
// the log does not depend on how the emitters' events interleave:
// every channel is recorded by exactly one stream, making its
// per-stream arrival order the channel's own deterministic event
// order, and cross-channel ties are broken by name rather than by
// scheduling accidents.
//
// A nil *FlightRecorder hands out nil streams and empty views.
type FlightRecorder struct {
	mu      sync.Mutex
	cap     int
	streams []*FlightStream
}

// NewFlightRecorder returns a recorder whose streams each retain the
// last capPerStream events (DefaultFlightCap if <= 0).
func NewFlightRecorder(capPerStream int) *FlightRecorder {
	if capPerStream <= 0 {
		capPerStream = DefaultFlightCap
	}
	return &FlightRecorder{cap: capPerStream}
}

// Stream allocates a new event stream whose events carry the emitter
// tag in FlightEvent.Shard. Call once per emitter (per instrumented
// system, per harness); returns nil on a nil recorder, so the disabled path
// stays a single branch at every Record site.
func (fr *FlightRecorder) Stream(emitter int) *FlightStream {
	if fr == nil {
		return nil
	}
	s := &FlightStream{emitter: emitter, limit: fr.cap}
	fr.mu.Lock()
	fr.streams = append(fr.streams, s)
	fr.mu.Unlock()
	return s
}

// mergeKey is an event's canonical sort key: its time, channel and
// per-(stream, channel) arrival index, and its position in the copied
// events, whose shard and seq break the remaining ties. It is a few
// words, so the sort moves keys instead of events.
type mergeKey struct {
	at       int64
	channel  string
	idx, pos int32
}

// merged copies every retained event and returns the copies with their
// keys in canonical order.
func (fr *FlightRecorder) merged() ([]FlightEvent, []mergeKey) {
	if fr == nil {
		return nil, nil
	}
	fr.mu.Lock()
	streams := slices.Clone(fr.streams)
	fr.mu.Unlock()
	size := 0
	for _, s := range streams {
		n, _ := s.counts()
		size += n
	}
	evs := make([]FlightEvent, 0, size)
	keys := make([]mergeKey, 0, size)
	var chans []chanCount
	for _, s := range streams {
		evs, keys, chans = s.appendEvents(evs, keys, chans)
	}
	slices.SortFunc(keys, func(a, b mergeKey) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if a.channel != b.channel {
			if a.channel < b.channel {
				return -1
			}
			return 1
		}
		if a.idx != b.idx {
			return int(a.idx - b.idx)
		}
		// Same channel recorded by two streams — outside the
		// one-channel-one-stream contract; fall back to transport order
		// so the sort at least stays total.
		ea, eb := &evs[a.pos], &evs[b.pos]
		if ea.Shard != eb.Shard {
			return ea.Shard - eb.Shard
		}
		return int(ea.Seq) - int(eb.Seq)
	})
	return evs, keys
}

// Events returns every retained event in canonical merged order.
func (fr *FlightRecorder) Events() []FlightEvent {
	evs, keys := fr.merged()
	out := make([]FlightEvent, len(keys))
	for i, k := range keys {
		out[i] = evs[k.pos]
	}
	return out
}

// Tail returns the last n events in canonical order (all of them when
// n <= 0 or n exceeds the retained count).
func (fr *FlightRecorder) Tail(n int) []FlightEvent {
	evs := fr.Events()
	if n > 0 && n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Len returns the number of retained events across all streams.
func (fr *FlightRecorder) Len() int {
	n, _ := fr.counts()
	return n
}

// Dropped returns the total number of events overwritten by ring
// wrap-around across all streams.
func (fr *FlightRecorder) Dropped() uint64 {
	_, d := fr.counts()
	return d
}

// counts sums the streams' retained and dropped counts without copying
// a ring.
func (fr *FlightRecorder) counts() (retained int, dropped uint64) {
	if fr == nil {
		return 0, 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for _, s := range fr.streams {
		n, d := s.counts()
		retained += n
		dropped += d
	}
	return retained, dropped
}

// Bytes renders the canonical serialization: one line per event in
// merged order, excluding the transport metadata (emitter, seq) that
// depends on how emitters were set up. This is the artifact the
// identity tests compare — byte-identical across -parallel levels.
// Each line is "at channel kind reason replica fill aux", with "-" for
// an empty string.
func (fr *FlightRecorder) Bytes() []byte {
	evs, keys := fr.merged()
	// lineSlack covers a line's separators and numbers: virtual-µs
	// times of up to ten digits and small replicas, fills and aux. A
	// longer line only grows the buffer.
	const lineSlack = 40
	size := 0
	for i := range evs {
		size += len(evs[i].Channel) + len(evs[i].Kind) + len(evs[i].Reason) + lineSlack
	}
	buf := make([]byte, 0, size)
	for _, k := range keys {
		ev := &evs[k.pos]
		buf = strconv.AppendInt(buf, ev.At, 10)
		buf = appendField(buf, ev.Channel)
		buf = appendField(buf, ev.Kind)
		buf = appendField(buf, ev.Reason)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(ev.Replica), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(ev.Fill), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, ev.Aux, 10)
		buf = append(buf, '\n')
	}
	return buf
}

// appendField appends a space and s, or "-" for an empty s.
func appendField(buf []byte, s string) []byte {
	if s == "" {
		return append(buf, " -"...)
	}
	return append(append(buf, ' '), s...)
}

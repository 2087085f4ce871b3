package obs

import (
	"bytes"
	"fmt"
	"slices"
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
	ring    []FlightEvent
	next    uint64 // events ever recorded; also the next seq
	metrics *flightMetrics
}

// Record appends ev to the stream, stamping its emitter and sequence
// number, and updates the stream's metrics (SetMetrics). The ring is
// bounded: once full, the oldest event is overwritten (and counted as
// dropped). No allocation on the hot path — the ring is preallocated
// and the event is copied by value.
func (s *FlightStream) Record(ev FlightEvent) {
	if s == nil {
		return
	}
	s.mu.Lock()
	ev.Shard = s.emitter
	ev.Seq = s.next
	s.ring[s.next%uint64(len(s.ring))] = ev
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
	if n := uint64(len(s.ring)); s.next > n {
		return int(n), s.next - n
	}
	return int(s.next), 0
}

// snapshot returns the retained events oldest→newest plus the number
// overwritten.
func (s *FlightStream) snapshot() (evs []FlightEvent, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := uint64(len(s.ring))
	if s.next <= n {
		return slices.Clone(s.ring[:s.next]), 0
	}
	head := s.next % n
	evs = make([]FlightEvent, 0, n)
	evs = append(evs, s.ring[head:]...)
	evs = append(evs, s.ring[:head]...)
	return evs, s.next - n
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
	s := &FlightStream{emitter: emitter, ring: make([]FlightEvent, fr.cap)}
	fr.mu.Lock()
	fr.streams = append(fr.streams, s)
	fr.mu.Unlock()
	return s
}

// flightRec pairs an event with its per-(stream, channel) arrival
// index for the canonical merge.
type flightRec struct {
	ev  FlightEvent
	idx int
}

// merged returns all retained events in canonical order.
func (fr *FlightRecorder) merged() []flightRec {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	streams := slices.Clone(fr.streams)
	fr.mu.Unlock()
	var all []flightRec
	for _, s := range streams {
		evs, _ := s.snapshot()
		idx := make(map[string]int, 8)
		for _, ev := range evs {
			all = append(all, flightRec{ev: ev, idx: idx[ev.Channel]})
			idx[ev.Channel]++
		}
	}
	slices.SortFunc(all, func(a, b flightRec) int {
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
		// Same channel recorded by two streams — outside the
		// one-channel-one-stream contract; fall back to transport order
		// so the sort at least stays total.
		if a.ev.Shard != b.ev.Shard {
			return a.ev.Shard - b.ev.Shard
		}
		return int(a.ev.Seq) - int(b.ev.Seq)
	})
	return all
}

// Events returns every retained event in canonical merged order.
func (fr *FlightRecorder) Events() []FlightEvent {
	recs := fr.merged()
	out := make([]FlightEvent, len(recs))
	for i, r := range recs {
		out[i] = r.ev
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
func (fr *FlightRecorder) Bytes() []byte {
	var buf bytes.Buffer
	for _, r := range fr.merged() {
		ev := r.ev
		fmt.Fprintf(&buf, "%d %s %s %s %d %d %d\n",
			ev.At, orDash(ev.Channel), orDash(ev.Kind), orDash(ev.Reason),
			ev.Replica, ev.Fill, ev.Aux)
	}
	return buf.Bytes()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

package obs

import "strconv"

// The flight stream's registry view (DESIGN.md §9). The families are
// runtime-neutral: the simulated and the wall-clock channels record the
// same events, so both export the same series.
const (
	// flightEventsTotal counts every event by {channel, replica, kind};
	// replica 0 is channel-wide.
	flightEventsTotal = "ftpn_flight_events_total"
	// flightFill is the queue fill carried by the last enqueue or read
	// event, by {channel, replica}.
	flightFill = "ftpn_flight_fill"
	// flightConvictionsTotal counts convict events by {channel,
	// replica, reason}.
	flightConvictionsTotal = "ftpn_flight_convictions_total"
	// flightRecoveriesTotal counts recover events by {replica}.
	flightRecoveriesTotal = "ftpn_flight_recoveries_total"
	// flightRecoveryLatency is the conviction→recovery latency (µs)
	// recover events carry in Aux.
	flightRecoveryLatency = "ftpn_flight_recovery_latency_us"
)

// flightMetrics is a stream's metrics sink. Each distinct (channel,
// replica, kind, reason) resolves its series once; from then on an event
// is one map lookup and a few atomic updates, with no allocation. The
// owning stream's lock guards the cache.
type flightMetrics struct {
	reg    *Registry
	series map[flightKey]*flightSeries
}

type flightKey struct {
	channel, kind, reason string
	replica               int
}

// flightSeries are the series one kind of event updates; the ones that
// do not apply to its kind are nil (no-op).
type flightSeries struct {
	events      *Counter
	fill        *Gauge
	convictions *Counter
	recoveries  *Counter
	latency     *Histogram
}

func newFlightMetrics(reg *Registry) *flightMetrics {
	if reg == nil {
		return nil
	}
	return &flightMetrics{reg: reg, series: make(map[flightKey]*flightSeries)}
}

// observe updates the series of one recorded event.
func (m *flightMetrics) observe(ev *FlightEvent) {
	s := m.lookup(flightKey{channel: ev.Channel, kind: ev.Kind, reason: ev.Reason, replica: ev.Replica})
	s.events.Inc()
	s.fill.Set(int64(ev.Fill))
	s.convictions.Inc()
	s.recoveries.Inc()
	s.latency.Observe(ev.Aux)
}

// lookup returns the series of an event key, registering them on first
// use.
func (m *flightMetrics) lookup(k flightKey) *flightSeries {
	if s := m.series[k]; s != nil {
		return s
	}
	r := strconv.Itoa(k.replica)
	s := &flightSeries{events: m.reg.Counter(flightEventsTotal,
		"Flight events by channel, replica and kind; replica 0 = channel-wide.",
		Labels{"channel": k.channel, "replica": r, "kind": k.kind})}
	switch k.kind {
	case "enqueue", "read":
		s.fill = m.reg.Gauge(flightFill,
			"Queue fill after the last enqueue or read; replica 0 = channel-wide.",
			Labels{"channel": k.channel, "replica": r})
	case FlightConvict:
		s.convictions = m.reg.Counter(flightConvictionsTotal, "Convictions by channel, replica and reason.",
			Labels{"channel": k.channel, "replica": r, "reason": k.reason})
	case FlightRecover:
		s.recoveries = m.reg.Counter(flightRecoveriesTotal, "Completed recoveries.", Labels{"replica": r})
		s.latency = m.reg.Histogram(flightRecoveryLatency, "Conviction-to-recovery latency.",
			ExpBuckets(1000, 4, 8), nil)
	}
	m.series[k] = s
	return s
}

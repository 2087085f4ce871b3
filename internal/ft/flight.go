package ft

import "ftpn/internal/obs"

// InstrumentFlight arms the flight-recorder output of every arbitration
// channel of the system: each channel event and each conviction becomes
// one obs.FlightEvent in st, stamped in virtual µs, a conviction with
// the fill and divergence sampled at conviction time (see
// RecordFlight). The record is one struct copied into the stream's ring
// — no formatting, and an allocation only when the ring grows by a
// chunk — so the recorder can stay on in long campaigns; a nil stream
// disarms.
//
// Injections and recoveries are recorded by the layers that perform
// them (harnesses record obs.FlightInject, recover.Manager records
// obs.FlightRecover); together with the channel events the stream holds
// the full causal chain obs.Explain reconstructs, and every other view
// (obs metrics, the Chrome trace) derives from it.
func InstrumentFlight(sys *System, st *obs.FlightStream) {
	for _, r := range sys.Replicators {
		r.RecordFlight(st, 1)
	}
	for _, s := range sys.Selectors {
		s.RecordFlight(st, 1)
	}
}

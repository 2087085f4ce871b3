package ft

import "ftpn/internal/obs"

// InstrumentFlight installs probes that mirror every channel probe
// event into a flight-recorder stream, and a fault hook that records
// each conviction with the divergence and fill sampled at conviction
// time. The probe path copies one struct into a preallocated ring — no
// allocation, no formatting — so the recorder can stay on in long
// campaigns. Composes with Instrument/InstrumentTrace via chainProbe;
// a nil stream is a no-op (nothing is installed).
//
// Injections and recoveries are recorded by the layers that perform
// them (harnesses record obs.FlightInject, recover.Manager records
// obs.FlightRecover); together with the probe events the stream holds
// the full causal chain obs.Explain reconstructs.
func InstrumentFlight(sys *System, st *obs.FlightStream) {
	if st == nil {
		return
	}
	mirror := func(e ProbeEvent) {
		st.Record(obs.FlightEvent{
			At:      int64(e.At),
			Channel: e.Channel,
			Kind:    e.Kind.String(),
			Replica: e.Replica,
			Fill:    e.Fill,
			Aux:     e.Lead,
		})
	}
	for _, r := range sortedValues(sys.Replicators) {
		r.SetProbe(chainProbe(r.probe, mirror))
	}
	for _, s := range sortedValues(sys.Selectors) {
		s.SetProbe(chainProbe(s.probe, mirror))
	}
	sys.AddFaultHook(func(f Fault) {
		ev := obs.FlightEvent{
			At:      int64(f.At),
			Channel: f.Channel,
			Kind:    obs.FlightConvict,
			Reason:  string(f.Reason),
			Replica: f.Replica,
		}
		if r, ok := sys.Replicators[f.Channel]; ok {
			ev.Fill = r.Fill(f.Replica)
			ev.Aux = r.Divergence(f.Replica)
		} else if s, ok := sys.Selectors[f.Channel]; ok {
			ev.Fill = s.Fill()
			ev.Aux = s.Divergence(f.Replica)
		}
		st.Record(ev)
	})
}

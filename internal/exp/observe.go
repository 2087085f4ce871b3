package exp

// Chrome-trace export for the experiment harness (`ftpnsim -tracefile`):
// one fault + recovery run recorded as a flight log, then rendered.

import (
	"fmt"
	"io"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/obs"
	"ftpn/internal/recover"
)

// WriteChromeTrace runs one duplicated execution of app with a stop
// fault injected into replica 2 and a recovery manager attached,
// records its flight log (injection, channel events, convictions,
// recovery) and writes the log rendered as a Chrome trace-event
// timeline to w (obs.RenderTrace: queue-fill counter tracks, instant
// markers and one forensic flow per conviction). The output loads
// directly in Perfetto or chrome://tracing; timestamps are the
// simulator's virtual microseconds.
func WriteChromeTrace(app App, w io.Writer) error {
	sizing, err := SizingFor(app)
	if err != nil {
		return err
	}
	injectAt := des.Time(app.Tokens/3) * app.PeriodUs
	var fr *obs.FlightRecorder
	sys, err := runDuplicated(app, sizing.BuildConfig(app), nil, 0, func(sys *ft.System) error {
		// Per token a replicator records 5 events and a selector 3; 8
		// per channel leaves headroom for the fault and re-integration
		// arc, so the whole run fits the ring (checked below).
		channels := len(sys.Replicators) + len(sys.Selectors)
		fr = obs.NewFlightRecorder(int(8*app.Tokens) * channels)
		st := fr.Stream(0)
		ft.InstrumentFlight(sys, st)
		recover.NewManager(sys, recover.Plan{Delay: 10 * app.PeriodUs, MaxRecoveries: 1}).RecordFlight(st)
		st.Record(obs.FlightEvent{At: int64(injectAt), Kind: obs.FlightInject, Reason: "stop-all", Replica: 2})
		sys.InjectFault(2, injectAt, fault.StopAll, 0)
		return nil
	})
	if err != nil {
		return err
	}
	if len(sys.Faults) == 0 {
		return fmt.Errorf("exp: traced run of %s detected no fault", app.Name)
	}
	if d := fr.Dropped(); d != 0 {
		return fmt.Errorf("exp: traced run of %s overflowed its flight log by %d events", app.Name, d)
	}
	return obs.RenderTrace(fr.Events()).WriteJSON(w)
}

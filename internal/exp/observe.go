package exp

// Observability exports for the experiment harness: a Chrome-trace
// timeline of one fault + recovery run (`ftpnsim -tracefile`) and the
// metrics-instrumented run shared by tests and the live example.

import (
	"fmt"
	"io"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
	"ftpn/internal/recover"
	"ftpn/internal/trace"
)

// WriteChromeTrace runs one duplicated execution of app with a stop
// fault injected into replica 2 and a recovery manager attached, records
// the run as a Chrome trace-event timeline (queue-fill counter tracks
// for every arbitration channel plus instant markers for the fault, the
// convictions, the repair and the re-integration phases) and writes the
// JSON document to w. The output loads directly in Perfetto or
// chrome://tracing; timestamps are the simulator's virtual microseconds.
func WriteChromeTrace(app App, w io.Writer) error {
	sizing, err := SizingFor(app)
	if err != nil {
		return err
	}
	net, err := app.Build(func(des.Time, kpn.Token) {})
	if err != nil {
		return err
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, sizing.BuildConfig(app))
	if err != nil {
		return err
	}
	rec := obs.NewTraceRecorder()
	ft.InstrumentTrace(sys, rec)

	mgr := recover.NewManager(sys, recover.Plan{Delay: 10 * app.PeriodUs, MaxRecoveries: 1})
	mgr.OnConvicted = func(c recover.Conviction) {
		rec.Instant(c.String(), c.Fault.At)
	}
	mgr.OnRecovered = func(ev recover.Event) {
		rec.Instant(fmt.Sprintf("recovered R%d (complete=%t, latency %dus)",
			ev.Replica, ev.Complete, ev.RecoveredAt-ev.DetectedAt), ev.RecoveredAt)
	}

	injectAt := des.Time(app.Tokens/3) * app.PeriodUs
	rec.Instant(fmt.Sprintf("inject stop-all into R2 at %dus", injectAt), injectAt)
	sys.InjectFault(2, injectAt, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()
	if len(sys.Faults) == 0 {
		return fmt.Errorf("exp: traced run of %s detected no fault", app.Name)
	}
	return rec.WriteJSON(w)
}

// observedRun executes one duplicated run of app with a full metrics
// registry and recovery manager attached, injecting a stop fault into
// replica `replica`. Shared by the harness-level metric-identity test
// and the live example.
func observedRun(app App, replica int, reg *obs.Registry) (*ft.System, *recover.Manager, error) {
	sizing, err := SizingFor(app)
	if err != nil {
		return nil, nil, err
	}
	arr := &trace.Arrivals{}
	net, err := app.Build(func(now des.Time, tok kpn.Token) { arr.Record(now) })
	if err != nil {
		return nil, nil, err
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, sizing.BuildConfig(app))
	if err != nil {
		return nil, nil, err
	}
	ft.Instrument(sys, reg)
	mgr := recover.NewManager(sys, recover.Plan{Delay: 10 * app.PeriodUs, MaxRecoveries: 1})
	mgr.Observe(reg)
	sys.InjectFault(replica, des.Time(app.Tokens/3)*app.PeriodUs, fault.StopAll, 0)
	k.Run(0)
	k.Shutdown()
	return sys, mgr, nil
}

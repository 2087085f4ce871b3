package crt

import "time"

// ProbeEvent is one channel-level event from the wall-clock runtime:
// ft.ProbeEvent with a real timestamp. Kind is the event's
// ft.ProbeKind.String() ("write", "enqueue", "read", "drop-duplicate",
// "drop-lost", "drop-slide", "drop-resync", "reintegrate", "aligned",
// "forgiven", "drop-value").
type ProbeEvent struct {
	At      time.Duration
	Channel string
	Kind    string
	Replica int // 1-based; 0 = channel-wide
	Fill    int // queue fill after the event (where meaningful)
}

// Probe observes channel events. Unlike fault handlers, probes are
// called with the channel lock HELD so the event reflects a consistent
// state: they must be cheap, must not block, and must not call back
// into the channel. Metric updates (internal/obs) satisfy this. A nil
// probe costs one predicted branch per event site.
type Probe func(ProbeEvent)

// Package detect implements the state-of-the-art baseline fault
// detectors the paper compares against (§4.3): the distance-function
// monitor of Neukirchner et al. (RTSS 2012), restricted to l-repetitive
// distance functions and modified for the fail-silent fault model. With a
// single bound it is the simple watchdog: one timeout since the last
// event. Unlike the paper's counter-based framework, the baseline needs
// runtime timekeeping: it polls a timer and compares the current time
// against observed event timestamps. Callers feed it events through
// OnEvent (Table 3 hooks a replicator's reads, ft.Replicator.SetReadHook).
package detect

import (
	"fmt"

	"ftpn/internal/des"
)

// DistanceMonitor checks a token stream against an l-repetitive
// maximum-distance function: the time spanned by the last n consecutive
// events (n <= l) must never exceed Bounds[n-1], or — under the
// fail-silent model — the stream has stopped and the monitored replica
// is faulty. The check runs on a polling timer of period PollUs, which
// is where the baseline's detection-latency penalty comes from
// (the paper's §4.3 discussion uses a 1 ms poll).
type DistanceMonitor struct {
	k      *des.Kernel
	pollUs des.Time
	bounds []des.Time // bounds[n-1]: max distance spanning n gaps
	hist   []des.Time // timestamps of the last l events, oldest first

	faulty  bool
	faultAt des.Time
	started bool
}

// NewDistanceMonitor builds a monitor with an l-repetitive bound vector:
// bounds[n-1] is the maximum allowed distance between an event and the
// n-th event before it. pollUs is the timer period. The polling timer
// stops at detection; Faulty reports it.
func NewDistanceMonitor(k *des.Kernel, pollUs des.Time, bounds []des.Time) *DistanceMonitor {
	if pollUs <= 0 {
		panic(fmt.Sprintf("detect: poll period must be positive, got %d", pollUs))
	}
	if len(bounds) == 0 {
		panic("detect: at least one distance bound (l >= 1) required")
	}
	for i, b := range bounds {
		if b <= 0 {
			panic(fmt.Sprintf("detect: bound[%d] must be positive, got %d", i, b))
		}
	}
	return &DistanceMonitor{k: k, pollUs: pollUs, bounds: append([]des.Time(nil), bounds...)}
}

// Start arms the polling timer. The monitor treats its own start instant
// as a virtual first event so that a stream that never starts is also
// detected.
func (m *DistanceMonitor) Start() {
	if m.started {
		return
	}
	m.started = true
	m.hist = append(m.hist, m.k.Now())
	m.k.Every(m.pollUs, func() bool {
		m.poll()
		return !m.faulty
	})
}

// OnEvent records an observed stream event (token production or
// consumption, depending on what the monitor is attached to).
func (m *DistanceMonitor) OnEvent(now des.Time) {
	m.hist = append(m.hist, now)
	if len(m.hist) > len(m.bounds) {
		m.hist = m.hist[len(m.hist)-len(m.bounds):]
	}
}

// poll is the timer body: the fail-silent check asks whether the
// distance from the n-th most recent event to now exceeds bound[n-1].
func (m *DistanceMonitor) poll() {
	if m.faulty {
		return
	}
	now := m.k.Now()
	for n := 1; n <= len(m.hist); n++ {
		ref := m.hist[len(m.hist)-n]
		if now-ref > m.bounds[n-1] {
			m.faulty = true
			m.faultAt = now
			return
		}
	}
}

// Faulty reports the detection state.
func (m *DistanceMonitor) Faulty() (bool, des.Time) { return m.faulty, m.faultAt }

package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/rtc"
)

// Sizing is the analytic design of a duplicated system per Section 3.4:
// replicator capacities (eq. 3), selector initial fills (eq. 4) and
// capacities, divergence thresholds (eq. 5) and detection-latency upper
// bounds (eq. 6-8).
type Sizing struct {
	RepCaps  [2]int
	SelInits [2]int
	SelCaps  [2]int
	D        int64 // selector divergence threshold
	DRep     int64 // replicator read-divergence threshold

	// MKBounds holds the paper's stopped-replica detection bounds:
	// MKDetectionBounds at m = 0.
	MKBounds
}

// ComputeSizing derives the full analytic design for an application.
func ComputeSizing(app App) (Sizing, error) {
	var s Sizing
	in1, in2 := app.InModel(1), app.InModel(2)
	out1, out2 := app.OutModel(1), app.OutModel(2)
	h := rtc.Horizon(app.Producer, app.Consumer, in1, in2, out1, out2)

	// Eq. 3: replicator queue capacities, one per replica.
	for i, m := range []rtc.PJD{in1, in2} {
		c, err := rtc.BufferCapacity(app.Producer.Upper(), m.Lower(), h)
		if err != nil {
			return s, fmt.Errorf("exp: replicator capacity R%d: %w", i+1, err)
		}
		s.RepCaps[i] = int(c)
		if s.RepCaps[i] < 1 {
			s.RepCaps[i] = 1
		}
	}

	// Eq. 4: initial fills so the consumer never stalls; the virtual
	// capacity |S_k| additionally absorbs the consumer running ahead of
	// replica k by the same amount, hence |S_k| = 2·|S_k|_0 (which
	// reproduces the paper's 4/2 and 6/3 pattern).
	for i, m := range []rtc.PJD{out1, out2} {
		f, err := rtc.InitialFill(m.Lower(), app.Consumer.Upper(), h)
		if err != nil {
			return s, fmt.Errorf("exp: selector initial fill S%d: %w", i+1, err)
		}
		if f < 1 {
			f = 1
		}
		s.SelInits[i] = int(f)
		s.SelCaps[i] = 2 * int(f)
	}

	// Eq. 5: divergence thresholds from the output envelopes (selector)
	// and consumption envelopes (replicator).
	d, err := rtc.DivergenceThreshold(out1.Upper(), out1.Lower(), out2.Upper(), out2.Lower(), h)
	if err != nil {
		return s, fmt.Errorf("exp: selector divergence threshold: %w", err)
	}
	s.D = d
	dr, err := rtc.DivergenceThreshold(in1.Upper(), in1.Lower(), in2.Upper(), in2.Lower(), h)
	if err != nil {
		return s, fmt.Errorf("exp: replicator divergence threshold: %w", err)
	}
	s.DRep = dr

	// Eq. 8 and the replicator's queue-fill bound, as MKDetectionBounds
	// derives them for the paper's binary policy.
	s.MKBounds, err = MKDetectionBounds(app, s, 0)
	return s, err
}

// sizingKey is the complete analytic input of ComputeSizing: the six
// arrival/service envelopes. Two apps with equal envelopes have equal
// sizings, whatever their names or payloads.
type sizingKey struct {
	producer, consumer   rtc.PJD
	in1, in2, out1, out2 rtc.PJD
}

var (
	sizingCache              sync.Map // sizingKey -> Sizing
	sizingHits, sizingMisses atomic.Int64
)

// SizingFor returns ComputeSizing(app), memoized on the app's timing
// envelopes. The breakpoint solvers behind eq. 3-8 are deterministic
// pure functions of those envelopes, so a campaign sweeping thousands
// of runs over a handful of (app, jitter-tier) cells computes each
// design exactly once. Errors are not cached (they indicate
// misconfiguration, which the first caller reports).
func SizingFor(app App) (Sizing, error) {
	key := sizingKey{
		producer: app.Producer, consumer: app.Consumer,
		in1: app.InModel(1), in2: app.InModel(2),
		out1: app.OutModel(1), out2: app.OutModel(2),
	}
	if v, ok := sizingCache.Load(key); ok {
		sizingHits.Add(1)
		return v.(Sizing), nil
	}
	s, err := ComputeSizing(app)
	if err != nil {
		return s, err
	}
	sizingMisses.Add(1)
	sizingCache.Store(key, s)
	return s, nil
}

// SizingCacheStats reports (hits, misses) of the SizingFor cache.
func SizingCacheStats() (hits, misses int64) {
	return sizingHits.Load(), sizingMisses.Load()
}

// MKBounds carries the worst-case detection-latency bounds for a
// permanent fail-silent fault under a policy with violation budget m
// (m = 0 is the paper's binary rule; k does not appear — a permanent
// fault violates every sample once past the threshold, see
// rtc.DetectionBound).
type MKBounds struct {
	SelBoundUs des.Time // eq. 8 bound for a stopped replica at the selector
	RepBoundUs des.Time // queue-fill bound at the replicator
}

// Worst returns the later of the two detectors' bounds.
func (b MKBounds) Worst() des.Time {
	if b.RepBoundUs > b.SelBoundUs {
		return b.RepBoundUs
	}
	return b.SelBoundUs
}

// MKDetectionBounds derives the stopped-replica detection bounds of a
// sized design under a policy with violation budget m; ComputeSizing
// stores the m = 0 bounds in Sizing.
//
// The selector bound is eq. 8 with m forgiven divergence violations.
// Replicator bound: a stopped replica's queue (worst case empty at the
// fault) fills after cap more tokens; the write that finds it full is
// the cap+1-th. One additional token must be budgeted for a read the
// replica had already posted when the fault struck (a blocking read in
// flight completes; the fault model observes faults at interfaces), so
// the bound is the time for the producer's lower curve to deliver
// cap+2 tokens, plus m forgiven full-queue writes. The read-divergence
// detector (2·DRep-1 consumption events by the healthy replica, +1 read
// in flight, + m) may fire earlier; the bound takes the per-replica
// minimum, then the worst replica.
func MKDetectionBounds(app App, s Sizing, m int) (MKBounds, error) {
	var b MKBounds
	m = max(m, 0)
	in1, in2 := app.InModel(1), app.InModel(2)
	out1, out2 := app.OutModel(1), app.OutModel(2)
	bh := rtc.Horizon(app.Producer, app.Consumer, in1, in2, out1, out2) * 8

	sel, err := rtc.StoppedDetectionBound([]rtc.Curve{out1.Lower(), out2.Lower()}, s.D, m, bh)
	if err != nil {
		return b, fmt.Errorf("exp: selector detection bound: %w", err)
	}
	b.SelBoundUs = sel

	for i := range s.RepCaps {
		qf, err := rtc.TimeToReach(app.Producer.Lower(), int64(s.RepCaps[i])+2+int64(m), bh)
		if err != nil {
			return b, fmt.Errorf("exp: replicator queue-fill bound R%d: %w", i+1, err)
		}
		other := []rtc.PJD{in1, in2}[1-i]
		dv, err := rtc.TimeToReach(other.Lower(), 2*s.DRep+int64(m), bh)
		if err != nil {
			dv = qf // divergence never fires within the horizon
		}
		b.RepBoundUs = max(b.RepBoundUs, min(qf, dv))
	}
	return b, nil
}

// stopBound selects the analytic bound a stop mode is held to: a
// producer-side stop starves the selector (SelBound), a consumer-side
// stop backs up the replicator queue (RepBound), a full stop trips
// whichever detector fires first.
func stopBound(mode fault.Mode, b MKBounds) des.Time {
	switch mode {
	case fault.StopAll:
		return min(b.SelBoundUs, b.RepBoundUs)
	case fault.StopProducing:
		return b.SelBoundUs
	case fault.StopConsuming:
		return b.RepBoundUs
	}
	return 0
}

// policyM is the violation budget m a policy's analytic bounds are
// derived for: an (m,k) policy forgives m violations, every other
// policy convicts on the first one.
func policyM(pol ft.PolicySpec) int {
	if pol.Kind == ft.PolicyMK {
		return pol.M
	}
	return 0
}

// BuildConfig converts the sizing into the ft transform's configuration
// for the application's boundary channels.
func (s Sizing) BuildConfig(app App) ft.BuildConfig {
	return ft.BuildConfig{
		ReplicatorCaps: map[string][2]int{app.InChan: s.RepCaps},
		ReplicatorD:    map[string]int64{app.InChan: s.DRep},
		SelectorCaps:   map[string][2]int{app.OutChan: s.SelCaps},
		SelectorInits:  map[string][2]int{app.OutChan: s.SelInits},
		SelectorD:      map[string]int64{app.OutChan: s.D},
	}
}

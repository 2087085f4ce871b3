// Sizing walkthrough: use the real-time calculus package directly to
// size the FIFOs and thresholds of a custom application, the way a
// designer would apply Section 3.4 of the paper — including calibrating
// arrival curves from a measured trace instead of a PJD model.
package main

import (
	"fmt"

	"ftpn/internal/rtc"
)

func main() {
	// Suppose a radar front-end delivers bursts: nominally every 5 ms
	// with up to 12 ms jitter, never closer than 1 ms.
	producer := rtc.PJD{Period: 5_000, Jitter: 12_000, MinDist: 1_000}
	// Two diversified replicas of the processing chain.
	rep1 := rtc.PJD{Period: 5_000, Jitter: 14_000}
	rep2 := rtc.PJD{Period: 5_000, Jitter: 20_000}
	consumer := rtc.PJD{Period: 5_000, Jitter: 2_000}
	h := rtc.Horizon(producer, rep1, rep2, consumer)

	// Eq. 3: replicator queue capacities.
	for i, m := range []rtc.PJD{rep1, rep2} {
		c, err := rtc.BufferCapacity(producer.Upper(), m.Lower(), h)
		check(err)
		fmt.Printf("|R%d| = %d tokens (eq. 3)\n", i+1, c)
	}

	// Eq. 4: initial fill so the consumer never stalls.
	for i, m := range []rtc.PJD{rep1, rep2} {
		f, err := rtc.InitialFill(m.Lower(), consumer.Upper(), h)
		check(err)
		fmt.Printf("|S%d|0 = %d tokens, |S%d| = %d (eq. 4)\n", i+1, f, i+1, 2*f)
	}

	// Eq. 5: divergence threshold.
	d, err := rtc.DivergenceThreshold(rep1.Upper(), rep1.Lower(), rep2.Upper(), rep2.Lower(), h)
	check(err)
	fmt.Printf("D = %d (eq. 5, no false positives)\n", d)

	// Eq. 8: worst-case detection latency for a fail-silent replica,
	// convicted on its first violation (a violation budget m of 0).
	b, err := rtc.StoppedDetectionBound([]rtc.Curve{rep1.Lower(), rep2.Lower()}, d, 0, 8*h)
	check(err)
	fmt.Printf("max detection latency = %.1f ms (eq. 8)\n", float64(b)/1000)

	// Eq. 6: a degraded (not stopped) replica that still produces at a
	// third of the required rate takes longer to convict.
	degraded := rtc.PJD{Period: 15_000, Jitter: 20_000}
	b2, err := rtc.DetectionBound(rep1.Lower(), degraded.Upper(), d, 0, 64*h)
	check(err)
	fmt.Printf("degraded-replica detection latency = %.1f ms (eq. 6)\n", float64(b2)/1000)

	// Calibration path (§3.4: curves "derived from calibration
	// experiments"): build arrival curves from an observed trace.
	var ts []rtc.Time
	state := int64(42)
	t := rtc.Time(0)
	for i := 0; i < 400; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		t += 4_000 + ((state>>33)&0x7FFFFFFF)%3_000 // 4-7 ms gaps
		ts = append(ts, t)
	}
	upper, lower, err := rtc.CalibratedCurves(ts, 64)
	check(err)
	// Calibrated curves carry an exact transient as long as the trace;
	// scan several times past it so the supremum provably converges.
	hCal := 4 * ts[len(ts)-1]
	cap2, err := rtc.BufferCapacity(upper, rep1.Lower(), hCal)
	check(err)
	fmt.Printf("calibrated producer: upper(10ms)=%d lower(10ms)=%d, |R| vs replica 1 = %d\n",
		upper.Eval(10_000), lower.Eval(10_000), cap2)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

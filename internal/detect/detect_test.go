package detect

import (
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

func TestDistanceMonitorHealthyStreamSilent(t *testing.T) {
	k := des.NewKernel()
	// One gap of a PJD stream spans at most period + jitter.
	mon := NewDistanceMonitor(k, 1000, []des.Time{5000 + 500})
	mon.Start()
	k.Spawn("stream", 0, func(p *des.Proc) {
		pacer := kpn.NewPacer(rtc.PJD{Period: 5000, Jitter: 500}, 3)
		for i := 0; i < 40; i++ {
			if d := pacer.Next() - p.Now(); d > 0 {
				p.Delay(d)
			}
			mon.OnEvent(p.Now())
		}
		k.Stop()
	})
	k.Run(0)
	k.Shutdown()
	if fired, _ := mon.Faulty(); fired {
		t.Error("healthy stream within its envelope must not trip the monitor")
	}
}

func TestDistanceMonitorDetectsStoppedStream(t *testing.T) {
	k := des.NewKernel()
	mon := NewDistanceMonitor(k, 1000, []des.Time{5500})
	mon.Start()
	k.Spawn("stream", 0, func(p *des.Proc) {
		// Events every 5000 until t=20000, then silence (fail-silent).
		for i := 0; i < 5; i++ {
			mon.OnEvent(p.Now())
			p.Delay(5000)
		}
	})
	k.Run(60_000)
	k.Shutdown()
	// Last event at t=20000; bound 5500 exceeded after t=25500; first
	// poll tick after that is t=26000, and the timer stops there.
	if ok, at := mon.Faulty(); !ok || at != 26_000 {
		t.Errorf("Faulty() = %v,%d, want detection at 26000", ok, at)
	}
	if now := k.Now(); now != 26_000 {
		t.Errorf("kernel ran to %d, want the timer stopped at detection (26000)", now)
	}
}

func TestDistanceMonitorPollQuantization(t *testing.T) {
	// A coarser poll detects strictly later: the paper's §4.3 point that
	// the baseline pays the polling granularity.
	run := func(poll des.Time) des.Time {
		k := des.NewKernel()
		mon := NewDistanceMonitor(k, poll, []des.Time{1000})
		mon.Start()
		k.Spawn("stream", 0, func(p *des.Proc) {
			mon.OnEvent(p.Now()) // one event at t=0, then silence
		})
		k.Run(100_000)
		k.Shutdown()
		if ok, at := mon.Faulty(); ok {
			return at
		}
		return -1
	}
	fine, coarse := run(100), run(5000)
	if fine < 0 || coarse < 0 {
		t.Fatal("fault not detected")
	}
	if coarse <= fine {
		t.Errorf("coarse poll detected at %d, fine at %d; want coarse later", coarse, fine)
	}
}

func TestDistanceMonitorLRepetitive(t *testing.T) {
	// l=2: a stream may have one long gap (burst pattern) but two
	// consecutive events must not span more than bounds[1]. A monitor
	// with only l=1 would false-positive on the legal long gap.
	k := des.NewKernel()
	mon := NewDistanceMonitor(k, 100, []des.Time{1800, 2200})
	mon.Start()
	k.Spawn("stream", 0, func(p *des.Proc) {
		// Bursty but legal: events at 0, 200, 2000, 2200, 4000, 4200 ...
		for i := 0; i < 10; i++ {
			mon.OnEvent(p.Now())
			p.Delay(200)
			mon.OnEvent(p.Now())
			p.Delay(1800)
		}
		k.Stop()
	})
	k.Run(0)
	k.Shutdown()
	if fired, _ := mon.Faulty(); fired {
		t.Error("legal bursty stream tripped the l=2 monitor")
	}
}

func TestDistanceMonitorNeverStartedStream(t *testing.T) {
	k := des.NewKernel()
	mon := NewDistanceMonitor(k, 500, []des.Time{2000})
	mon.Start()
	k.Run(30_000)
	k.Shutdown()
	if ok, at := mon.Faulty(); !ok || at != 2500 {
		t.Errorf("silent-from-birth stream: Faulty() = %v,%d, want detection at 2500", ok, at)
	}
}

func TestDistanceMonitorValidation(t *testing.T) {
	k := des.NewKernel()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero poll", func() { NewDistanceMonitor(k, 0, []des.Time{1}) })
	mustPanic("no bounds", func() { NewDistanceMonitor(k, 1, nil) })
	mustPanic("bad bound", func() { NewDistanceMonitor(k, 1, []des.Time{0}) })
}

func TestDistanceMonitorStartIdempotent(t *testing.T) {
	k := des.NewKernel()
	mon := NewDistanceMonitor(k, 1000, []des.Time{10_000})
	mon.Start()
	mon.Start() // must not double-arm the timer
	k.Spawn("s", 0, func(p *des.Proc) { mon.OnEvent(0); k.Stop() })
	k.Run(0)
	k.Shutdown()
}

func TestWatchdog(t *testing.T) {
	k := des.NewKernel()
	// A watchdog is the one-bound monitor: a single timeout since the
	// last event.
	wd := NewDistanceMonitor(k, 1000, []des.Time{3000})
	wd.Start()
	k.Spawn("stream", 0, func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			wd.OnEvent(p.Now())
			p.Delay(2000)
		}
	})
	k.Run(30_000)
	k.Shutdown()
	// Last event t=4000; timeout 3000 exceeded after 7000; poll at 8000.
	if ok, at := wd.Faulty(); !ok || at != 8000 {
		t.Errorf("watchdog: Faulty() = %v,%d, want fired at 8000", ok, at)
	}
}

// TestWatchdogFalsePositiveOnBurstyStream demonstrates the paper's §1
// claim: simple timeout-based detection "is not effective for ...
// bursty timing characteristics". A legal bursty stream (pairs of
// events, long legal gap between pairs) trips a watchdog whose timeout
// is tuned to the mean rate, while the l=2 distance-function monitor —
// and, in the full framework, the counter-based detectors — stay quiet.
func TestWatchdogFalsePositiveOnBurstyStream(t *testing.T) {
	run := func(attach func(k *des.Kernel) func() (bool, des.Time)) (bool, des.Time) {
		k := des.NewKernel()
		check := attach(k)
		k.Spawn("bursty", 0, func(p *des.Proc) {
			// Legal pattern: events at 0, 200, 2000, 2200, 4000, ...
			for i := 0; i < 20; i++ {
				p.Delay(200)
				p.Delay(1800)
			}
			k.Stop()
		})
		k.Run(0)
		k.Shutdown()
		return check()
	}

	// Mean period is 1000; a watchdog at 1.5x mean rate misfires on the
	// legal 1800 gap.
	fired, _ := run(func(k *des.Kernel) func() (bool, des.Time) {
		wd := NewDistanceMonitor(k, 100, []des.Time{1500})
		wd.Start()
		k.Spawn("tap", 0, func(p *des.Proc) {
			for i := 0; i < 20; i++ {
				p.Delay(200)
				wd.OnEvent(p.Now())
				p.Delay(1800)
				wd.OnEvent(p.Now())
			}
		})
		return wd.Faulty
	})
	if !fired {
		t.Error("watchdog tuned to the mean rate should false-positive on a bursty stream")
	}

	// The l=2 distance monitor with the correct per-distance bounds does
	// not.
	fired2, _ := run(func(k *des.Kernel) func() (bool, des.Time) {
		mon := NewDistanceMonitor(k, 100, []des.Time{1900, 2100})
		mon.Start()
		k.Spawn("tap", 0, func(p *des.Proc) {
			for i := 0; i < 20; i++ {
				p.Delay(200)
				mon.OnEvent(p.Now())
				p.Delay(1800)
				mon.OnEvent(p.Now())
			}
		})
		return mon.Faulty
	})
	if fired2 {
		t.Error("l=2 distance monitor must accept the legal bursty stream")
	}
}

package des

import "testing"

// BenchmarkKernelChurn measures the event-scheduling hot path: two
// processes ping-ponging through Delay plus a periodic callback, the mix
// Table2 simulations exercise. With the event freelist, steady-state
// scheduling performs zero heap allocations per event (run with
// -benchmem; the small constant per op is goroutine machinery, not
// events).
func BenchmarkKernelChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for p := 0; p < 2; p++ {
			k.Spawn("worker", 0, func(p *Proc) {
				for j := 0; j < 1000; j++ {
					p.Delay(3)
				}
			})
		}
		k.Every(5, func() bool { return k.Now() < 2500 })
		k.Run(0)
		k.Shutdown()
	}
}

// BenchmarkProcPingPong prices one switch between two processes: each
// op wakes the peer through a shared Signal and blocks on it, so the
// kernel resumes the other process every time.
func BenchmarkProcPingPong(b *testing.B) {
	k := NewKernel()
	var sig Signal
	left := b.N
	body := func(p *Proc) {
		for left > 0 {
			left--
			k.Broadcast(&sig)
			p.Wait(&sig)
		}
	}
	k.Spawn("ping", 0, body)
	k.Spawn("pong", 0, body)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(0)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkProcSelfResume prices a yield whose next event resumes the
// same process: a lone process calling Delay(0).
func BenchmarkProcSelfResume(b *testing.B) {
	k := NewKernel()
	k.Spawn("solo", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(0)
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkEventSchedule isolates push/pop of pure callback events with
// no process machinery at all: the per-event cost of the heap plus the
// freelist, and zero allocs/op after warm-up.
func BenchmarkEventSchedule(b *testing.B) {
	k := NewKernel()
	var n int
	var tick func()
	tick = func() {
		if n > 0 {
			n--
			k.After(1, tick)
		}
	}
	// Warm the freelist and the heap backing array.
	n = 16
	k.After(1, tick)
	k.Run(0)

	b.ReportAllocs()
	b.ResetTimer()
	n = b.N
	k.After(1, tick)
	k.Run(0)
}

// TestFreelistReuse pins the zero-allocation property: once warm, the
// kernel schedules events without allocating.
func TestFreelistReuse(t *testing.T) {
	k := NewKernel()
	var n int
	var tick func()
	tick = func() {
		if n > 0 {
			n--
			k.After(1, tick)
		}
	}
	n = 64
	k.After(1, tick)
	k.Run(0)

	allocs := testing.AllocsPerRun(100, func() {
		n = 50
		k.After(1, tick)
		k.Run(0)
	})
	if allocs > 0 {
		t.Fatalf("warm kernel allocated %.1f times per 50-event run, want 0", allocs)
	}
}

package des

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestDelayAdvancesClock(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.Spawn("p", 0, func(p *Proc) {
		times = append(times, p.Now())
		p.Delay(10)
		times = append(times, p.Now())
		p.Delay(5)
		times = append(times, p.Now())
	})
	end := k.Run(0)
	if end != 15 {
		t.Errorf("Run returned %d, want 15", end)
	}
	want := []Time{0, 10, 15}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("times[%d] = %d, want %d", i, times[i], w)
		}
	}
}

func TestStartDelay(t *testing.T) {
	k := NewKernel()
	var started Time = -1
	k.Spawn("late", 42, func(p *Proc) { started = p.Now() })
	k.Run(0)
	if started != 42 {
		t.Errorf("process started at %d, want 42", started)
	}
}

func TestNegativeStartDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Spawn with negative delay should panic")
		}
	}()
	NewKernel().Spawn("bad", -1, func(*Proc) {})
}

func TestDeterministicInterleaving(t *testing.T) {
	// Two processes at the same instants must interleave identically on
	// every run, ordered by spawn/schedule sequence.
	run := func() string {
		k := NewKernel()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, 0, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Delay(10)
				}
			})
		}
		k.Run(0)
		return strings.Join(log, "")
	}
	first := run()
	if first != "abcabcabc" {
		t.Errorf("interleaving = %q, want abcabcabc", first)
	}
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic interleaving: %q vs %q", got, first)
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var count int
	k.Spawn("p", 0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			count++
			p.Delay(10)
		}
	})
	end := k.Run(35)
	if end != 35 {
		t.Errorf("Run(35) returned %d, want 35", end)
	}
	if count != 4 { // t = 0, 10, 20, 30
		t.Errorf("count = %d, want 4", count)
	}
	// Resume the same simulation.
	end = k.Run(100)
	if end != 100 || count != 11 {
		t.Errorf("after resume: end = %d count = %d, want 100 and 11", end, count)
	}
	k.Shutdown()
}

func TestRunUntilNeverRewindsClock(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(200, func() { fired = append(fired, k.Now()) })
	if end := k.Run(100); end != 100 {
		t.Fatalf("Run(100) returned %d, want 100", end)
	}
	if end := k.Run(50); end != 100 {
		t.Fatalf("Run(50) after Run(100) returned %d, want 100", end)
	}
	k.After(5, func() { fired = append(fired, k.Now()) })
	k.Run(0)
	if want := []Time{105, 200}; !slices.Equal(fired, want) {
		t.Errorf("callbacks ran at %v, want %v", fired, want)
	}
}

func TestAtAndAfter(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(30, func() { fired = append(fired, k.Now()) })
	k.At(10, func() { fired = append(fired, k.Now()) })
	k.After(20, func() { fired = append(fired, k.Now()) })
	k.Run(0)
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 20 || fired[2] != 30 {
		t.Errorf("fired = %v, want [10 20 30]", fired)
	}
}

func TestAtPastClamped(t *testing.T) {
	k := NewKernel()
	var at Time = -1
	k.Spawn("p", 0, func(p *Proc) {
		p.Delay(50)
		p.k.At(10, func() { at = k.Now() }) // in the past: clamp to now
	})
	k.Run(0)
	if at != 50 {
		t.Errorf("past event fired at %d, want 50", at)
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	k.Every(7, func() bool {
		ticks = append(ticks, k.Now())
		return len(ticks) < 4
	})
	k.Run(0)
	if len(ticks) != 4 || ticks[3] != 28 {
		t.Errorf("ticks = %v, want [7 14 21 28]", ticks)
	}
}

func TestEveryBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) should panic")
		}
	}()
	NewKernel().Every(0, func() bool { return true })
}

func TestSignalWaitBroadcast(t *testing.T) {
	k := NewKernel()
	var sig Signal
	var woke Time = -1
	k.Spawn("waiter", 0, func(p *Proc) {
		p.Wait(&sig)
		woke = p.Now()
	})
	k.Spawn("waker", 0, func(p *Proc) {
		p.Delay(25)
		k.Broadcast(&sig)
	})
	k.Run(0)
	if woke != 25 {
		t.Errorf("waiter woke at %d, want 25", woke)
	}
}

func TestBroadcastWakesAllFIFO(t *testing.T) {
	k := NewKernel()
	var sig Signal
	var order []string
	for _, n := range []string{"w1", "w2", "w3"} {
		n := n
		k.Spawn(n, 0, func(p *Proc) {
			p.Wait(&sig)
			order = append(order, n)
		})
	}
	k.At(5, func() { k.Broadcast(&sig) })
	k.Run(0)
	if strings.Join(order, ",") != "w1,w2,w3" {
		t.Errorf("wake order = %v, want w1,w2,w3", order)
	}
	if sig.NumWaiters() != 0 {
		t.Errorf("NumWaiters = %d after broadcast, want 0", sig.NumWaiters())
	}
}

func TestBlockedReporting(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Spawn("stuck-b", 0, func(p *Proc) { p.Wait(&sig) })
	k.Spawn("stuck-a", 0, func(p *Proc) { p.Wait(&sig) })
	k.Run(0)
	blocked := k.Blocked()
	if len(blocked) != 2 || blocked[0] != "stuck-a" || blocked[1] != "stuck-b" {
		t.Errorf("Blocked() = %v, want [stuck-a stuck-b]", blocked)
	}
	k.Shutdown()
	if got := k.Blocked(); len(got) != 0 {
		t.Errorf("Blocked() after Shutdown = %v, want empty", got)
	}
}

func TestStop(t *testing.T) {
	// The stopping body keeps delaying; b, due at the same instant,
	// must not run again, and neither must anything after a second Run.
	k := NewKernel()
	var log []string
	var kinds []string
	k.Trace(func(e TraceEvent) { kinds = append(kinds, e.Kind) })
	k.Spawn("a", 0, func(p *Proc) {
		for {
			log = append(log, fmt.Sprintf("a@%d", p.Now()))
			if p.Now() == 20 {
				k.Stop()
			}
			p.Delay(10)
		}
	})
	k.Spawn("b", 0, func(p *Proc) {
		for {
			log = append(log, fmt.Sprintf("b@%d", p.Now()))
			p.Delay(10)
		}
	})
	if end := k.Run(0); end != 20 {
		t.Errorf("Run returned %d, want 20", end)
	}
	if got, want := strings.Join(log, ","), "a@0,b@0,a@10,b@10,a@20"; got != want {
		t.Errorf("log = %s, want %s", got, want)
	}
	if !k.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
	if got := k.Dispatched(); got != 5 {
		t.Errorf("Dispatched = %d, want 5", got)
	}
	if got := kinds[len(kinds)-1]; got != "stop" {
		t.Errorf("last trace event = %q, want stop", got)
	}
	if end := k.Run(0); end != 20 || len(log) != 5 {
		t.Errorf("Run after Stop: end %d, %d log entries; want 20 and 5", end, len(log))
	}
	k.Shutdown()
}

func TestProcessPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("bomb", 0, func(p *Proc) {
		p.Delay(5)
		panic("boom")
	})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected panic from Run")
		}
		if !strings.Contains(v.(error).Error(), "boom") {
			t.Errorf("panic = %v, want to contain boom", v)
		}
	}()
	k.Run(0)
}

func TestShutdownUnwindsWithoutPanic(t *testing.T) {
	k := NewKernel()
	var sig Signal
	cleaned := false
	k.Spawn("p", 0, func(p *Proc) {
		defer func() { cleaned = true }()
		p.Wait(&sig)
	})
	k.Spawn("never-started", 100, func(p *Proc) { t.Error("should not run") })
	k.Run(10)
	k.Shutdown()
	if !cleaned {
		t.Error("deferred cleanup in killed process did not run")
	}
}

func TestProcAccessors(t *testing.T) {
	k := NewKernel()
	var name string
	var sameKernel bool
	k.Spawn("x", 0, func(p *Proc) {
		name = p.Name()
		sameKernel = p.Kernel() == k
	})
	k.Run(0)
	if name != "x" || !sameKernel {
		t.Errorf("accessors: name=%q sameKernel=%v", name, sameKernel)
	}
	if k.NumProcs() != 1 {
		t.Errorf("NumProcs = %d, want 1", k.NumProcs())
	}
}

func TestDelayZeroYields(t *testing.T) {
	// Delay(0) must let other ready processes at the same instant run.
	k := NewKernel()
	var log []string
	k.Spawn("a", 0, func(p *Proc) {
		log = append(log, "a1")
		p.Delay(0)
		log = append(log, "a2")
	})
	k.Spawn("b", 0, func(p *Proc) {
		log = append(log, "b1")
	})
	k.Run(0)
	if strings.Join(log, ",") != "a1,b1,a2" {
		t.Errorf("log = %v, want a1,b1,a2", log)
	}
}

func TestTraceRecordsSchedulerActions(t *testing.T) {
	k := NewKernel()
	var events []TraceEvent
	k.Trace(func(e TraceEvent) { events = append(events, e) })
	k.Spawn("p", 0, func(p *Proc) {
		p.Delay(5)
	})
	k.At(3, func() {})
	k.Run(0)
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	got := strings.Join(kinds, ",")
	want := "spawn,resume,callback,resume,end"
	if got != want {
		t.Errorf("trace = %s, want %s", got, want)
	}
	if events[1].Proc != "p" || events[1].At != 0 {
		t.Errorf("first resume = %+v", events[1])
	}
	if events[3].At != 5 {
		t.Errorf("second resume at %d, want 5", events[3].At)
	}
	// Disabling stops emission.
	k2 := NewKernel()
	k2.Trace(nil)
	k2.Spawn("q", 0, func(p *Proc) {})
	k2.Run(0)
}

func TestTraceStop(t *testing.T) {
	k := NewKernel()
	var sawStop bool
	k.Trace(func(e TraceEvent) {
		if e.Kind == "stop" {
			sawStop = true
		}
	})
	k.Spawn("p", 0, func(p *Proc) { k.Stop() })
	k.Run(0)
	k.Shutdown()
	if !sawStop {
		t.Error("stop not traced")
	}
}

func TestCallbackPanicWhileProcessDispatchesIsRaw(t *testing.T) {
	// The dispatch loop runs on process goroutines too: a callback that
	// panics there must reach Run's caller with its raw value, not
	// wrapped as a panic of the process that happened to dispatch it.
	cases := []struct {
		name string
		body func(p *Proc)
	}{
		{"yield", func(p *Proc) {
			for {
				p.Delay(5)
			}
		}},
		{"end", func(p *Proc) { p.Delay(1) }},
	}
	for _, c := range cases {
		name, body := c.name, c.body
		t.Run(name, func(t *testing.T) {
			k := NewKernel()
			cleaned := false
			k.Spawn("p", 0, func(p *Proc) {
				defer func() { cleaned = true }()
				body(p)
			})
			k.At(3, func() { panic("callback boom") })
			func() {
				defer func() {
					if v := recover(); v != "callback boom" {
						t.Errorf("Run panicked with %#v, want the raw callback value", v)
					}
				}()
				k.Run(0)
			}()
			if k.Now() != 3 {
				t.Errorf("clock after the panic = %d, want 3", k.Now())
			}
			if name == "yield" && cleaned {
				t.Error("the callback panic unwound the dispatching process")
			}
			k.Shutdown()
			if !cleaned {
				t.Error("Shutdown did not unwind the process")
			}
		})
	}
}

func TestRunUntilThenRunKeepsFIFO(t *testing.T) {
	// Unlike TestRunUntilKeepsQueueOrder, the limit is hit by a process
	// goroutine's dispatch loop, which must hand control back mid-run.
	run := func(firstUntil Time) string {
		k := NewKernel()
		var log []string
		k.At(10, func() { log = append(log, fmt.Sprintf("cb@%d", k.Now())) })
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, 0, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, fmt.Sprintf("%s@%d", name, p.Now()))
					p.Delay(10)
				}
			})
		}
		k.At(10, func() { log = append(log, fmt.Sprintf("cb2@%d", k.Now())) })
		if firstUntil > 0 {
			if end := k.Run(firstUntil); end != firstUntil {
				t.Errorf("Run(%d) returned %d", firstUntil, end)
			}
		}
		k.Run(0)
		k.Shutdown()
		return strings.Join(log, ",")
	}
	const want = "a@0,b@0,c@0,cb@10,cb2@10,a@10,b@10,c@10,a@20,b@20,c@20"
	for _, until := range []Time{0, 5, 9, 15} {
		if got := run(until); got != want {
			t.Errorf("Run(%d) then Run(0): %s, want %s", until, got, want)
		}
	}
}

func TestShutdownReleasesAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	var sig Signal
	k.Spawn("finished", 0, func(p *Proc) { p.Delay(1) })
	k.Spawn("waiting", 0, func(p *Proc) { p.Wait(&sig) })
	k.Spawn("delaying", 0, func(p *Proc) { p.Delay(1000) })
	k.Spawn("never-started", 500, func(p *Proc) { t.Error("should not run") })
	k.Run(10)
	if got := k.Blocked(); len(got) != 1 || got[0] != "waiting" {
		t.Fatalf("Blocked() = %v, want [waiting]", got)
	}
	k.Shutdown()
	// A terminated goroutine reports back before it exits; give the
	// stragglers a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after Shutdown, want %d", got, before)
	}
}

func TestTraceGoldenThreeProcesses(t *testing.T) {
	k := NewKernel()
	var got []TraceEvent
	k.Trace(func(e TraceEvent) { got = append(got, e) })
	var sig Signal
	k.Spawn("a", 0, func(p *Proc) {
		p.Delay(5)
		k.Broadcast(&sig)
		p.Delay(0)
	})
	k.Spawn("b", 0, func(p *Proc) {
		p.Wait(&sig)
		p.Delay(2) // the only event left: resumes without a switch
	})
	k.Spawn("c", 3, func(p *Proc) { p.Wait(&sig) })
	k.At(5, func() {})
	k.Run(0)
	k.Shutdown()
	want := []TraceEvent{
		{0, "spawn", "a"}, {0, "spawn", "b"}, {0, "spawn", "c"},
		{0, "resume", "a"},
		{0, "resume", "b"}, {0, "block", "b"},
		{3, "resume", "c"}, {3, "block", "c"},
		{5, "callback", ""},
		{5, "resume", "a"},
		{5, "resume", "b"},
		{5, "resume", "c"}, {5, "end", "c"},
		{5, "resume", "a"}, {5, "end", "a"},
		{7, "resume", "b"}, {7, "end", "b"},
	}
	if !slices.Equal(got, want) {
		t.Errorf("trace:\n got %v\nwant %v", got, want)
	}
	if k.Dispatched() != 9 {
		t.Errorf("Dispatched = %d, want 9", k.Dispatched())
	}
	if got, want := k.Stats(), (Stats{Switches: 8, Callbacks: 1, Blocks: 2}); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}

func TestStatsSplitsSwitchesFromSelfResumes(t *testing.T) {
	k := NewKernel()
	var resumes uint64
	k.Trace(func(e TraceEvent) {
		if e.Kind == "resume" {
			resumes++
		}
	})
	k.Spawn("solo", 0, func(p *Proc) {
		p.Delay(0) // nothing else due: resumes itself
		p.Delay(4) // "other" is due first: a switch there, then one back
	})
	k.Spawn("other", 1, func(p *Proc) {})
	k.Run(0)
	k.Shutdown()
	st := k.Stats()
	if want := (Stats{Switches: 3, SelfResumes: 1}); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	if st.Switches+st.SelfResumes != resumes {
		t.Errorf("switches %d + self-resumes %d != %d traced resumes", st.Switches, st.SelfResumes, resumes)
	}
}

func TestRunYieldsToScheduler(t *testing.T) {
	// Coroutine switches bypass the Go scheduler. On one P, Run must
	// still yield now and then, or other goroutines, the GC's mark
	// worker among them, wait for a preemption while the heap grows.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := NewKernel()
	defer k.Shutdown()
	var sig Signal
	left := 1000
	body := func(p *Proc) {
		for left > 0 {
			left--
			k.Broadcast(&sig)
			p.Wait(&sig)
		}
	}
	k.Spawn("ping", 0, body)
	k.Spawn("pong", 0, body)
	var ran atomic.Bool
	k.At(0, func() { go ran.Store(true) })
	k.Run(0)
	if !ran.Load() {
		t.Error("a goroutine made runnable during a 1000-switch run never ran")
	}
}

func TestProcSwitchZeroAllocs(t *testing.T) {
	// Two processes ping-pong through one Signal until left runs out,
	// then both wait and the run drains; each run re-arms them.
	const switches = 1000
	k := NewKernel()
	defer k.Shutdown()
	var sig Signal
	left := 0
	body := func(p *Proc) {
		for {
			if left > 0 {
				left--
				k.Broadcast(&sig)
			}
			p.Wait(&sig)
		}
	}
	k.Spawn("ping", 0, body)
	k.Spawn("pong", 0, body)
	kick := func() { k.Broadcast(&sig) }
	run := func() {
		left = switches
		k.At(k.Now(), kick)
		k.Run(0)
	}
	before := k.Stats().Switches
	run() // also grows the event queue and the waiter slices
	if got := k.Stats().Switches - before; got < switches {
		t.Fatalf("%d switches per run, want at least %d", got, switches)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Errorf("%.1f allocations per %d-switch ping-pong, want 0", allocs, switches)
	}
}

func TestStepResumeZeroAllocs(t *testing.T) {
	// Two step processes ping-pong through one Signal until left runs
	// out, then both park and the run drains; each run re-arms them.
	const steps = 1000
	k := NewKernel()
	defer k.Shutdown()
	var sig Signal
	left := 0
	step := func(p *Proc) {
		if left > 0 {
			left--
			k.Broadcast(&sig)
		}
		p.Park(On(&sig))
	}
	k.SpawnStep("ping", 0, step)
	k.SpawnStep("pong", 0, step)
	kick := func() { k.Broadcast(&sig) }
	run := func() {
		left = steps
		k.At(k.Now(), kick)
		k.Run(0)
	}
	before := k.Stats().Steps
	run() // also grows the event queue and the waiter slices
	if got := k.Stats().Steps - before; got < steps {
		t.Fatalf("%d steps per run, want at least %d", got, steps)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Errorf("%.1f allocations per %d-step ping-pong, want 0", allocs, steps)
	}
}

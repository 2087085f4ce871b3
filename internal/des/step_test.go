package des

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// stepsOf runs a scripted process as a step machine: waits[i] is what
// its i-th step parks on, and the step after the last one finishes.
func stepsOf(waits []Wait, log *[]string) func(p *Proc) {
	i := 0
	return func(p *Proc) {
		*log = append(*log, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
		if i == len(waits) {
			p.Finish()
			return
		}
		p.Park(waits[i])
		i++
	}
}

// bodyOf runs the same script as a coroutine body.
func bodyOf(waits []Wait, log *[]string) func(p *Proc) {
	return func(p *Proc) {
		for _, w := range waits {
			*log = append(*log, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
			p.Await(w)
		}
		*log = append(*log, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
	}
}

// TestStepProcessMatchesCoroutine runs one script of delays and signal
// waits as coroutines and as step processes: the trace, the log and
// every counter except switches against steps must agree.
func TestStepProcessMatchesCoroutine(t *testing.T) {
	run := func(step bool) ([]TraceEvent, []string, Stats) {
		k := NewKernel()
		var trace []TraceEvent
		k.Trace(func(e TraceEvent) { trace = append(trace, e) })
		var sig Signal
		var log []string
		scripts := map[string][]Wait{
			"a": {For(5), For(0), On(&sig), For(3)},
			"b": {On(&sig), For(-2), On(&sig)},
			"c": {For(1), For(1), For(1), For(10)},
		}
		for _, name := range []string{"a", "b", "c"} {
			if step {
				k.SpawnStep(name, 2, stepsOf(scripts[name], &log))
			} else {
				k.Spawn(name, 2, bodyOf(scripts[name], &log))
			}
		}
		k.Every(4, func() bool { k.Broadcast(&sig); return k.Now() < 20 })
		k.Run(0)
		k.Shutdown()
		return trace, log, k.Stats()
	}
	coTrace, coLog, coStats := run(false)
	stTrace, stLog, stStats := run(true)
	if !slices.Equal(coTrace, stTrace) {
		t.Errorf("trace differs:\ncoroutine %v\nstep      %v", coTrace, stTrace)
	}
	if !slices.Equal(coLog, stLog) {
		t.Errorf("log differs:\ncoroutine %v\nstep      %v", coLog, stLog)
	}
	if stStats.Switches != 0 || stStats.SelfResumes != 0 {
		t.Errorf("step run switched: %+v", stStats)
	}
	if coStats.Switches+coStats.SelfResumes != stStats.Steps {
		t.Errorf("coroutine resumes %d+%d, step run steps %d", coStats.Switches, coStats.SelfResumes, stStats.Steps)
	}
	if coStats.Callbacks != stStats.Callbacks || coStats.Blocks != stStats.Blocks {
		t.Errorf("counters differ: coroutine %+v, step %+v", coStats, stStats)
	}
}

func TestStepStatsCountEachStepAsAResume(t *testing.T) {
	k := NewKernel()
	var resumes, ends uint64
	k.Trace(func(e TraceEvent) {
		switch e.Kind {
		case "resume":
			resumes++
		case "end":
			ends++
		}
	})
	var log []string
	k.SpawnStep("s", 0, stepsOf([]Wait{For(1), For(0), For(7)}, &log))
	k.Run(0)
	st := k.Stats()
	if st.Steps != 4 || resumes != 4 || ends != 1 {
		t.Errorf("Steps = %d, resumes %d, ends %d; want 4, 4, 1", st.Steps, resumes, ends)
	}
	if want := "s@0,s@1,s@1,s@8"; strings.Join(log, ",") != want {
		t.Errorf("log %v, want %s", log, want)
	}
	if st.Switches != 0 || st.SelfResumes != 0 {
		t.Errorf("a step process switched: %+v", st)
	}
}

func TestStepProcessBlockedAndShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	var sig Signal
	var log []string
	k.SpawnStep("parked", 0, stepsOf([]Wait{For(1), On(&sig)}, &log))
	k.SpawnStep("delaying", 0, stepsOf([]Wait{For(1000)}, &log))
	k.SpawnStep("never-started", 500, func(p *Proc) { t.Error("should not run") })
	k.Spawn("coroutine", 0, func(p *Proc) { p.Wait(&sig) })
	k.Run(10)
	if got := k.Blocked(); !slices.Equal(got, []string{"coroutine", "parked"}) {
		t.Fatalf("Blocked() = %v, want [coroutine parked]", got)
	}
	if n := sig.NumWaiters(); n != 2 {
		t.Errorf("signal has %d waiters, want 2", n)
	}
	k.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after Shutdown, want %d", got, before)
	}
}

func TestStepPanicNamesProcess(t *testing.T) {
	for _, under := range []string{"run", "coroutine"} {
		k := NewKernel()
		k.SpawnStep("stepper", 3, func(p *Proc) { panic("boom") })
		if under == "coroutine" {
			// The step runs in the dispatch loop of a yielding coroutine.
			k.Spawn("host", 0, func(p *Proc) { p.Delay(10) })
		}
		func() {
			defer func() {
				v := recover()
				err, ok := v.(error)
				if !ok || err.Error() != `des: process "stepper" panicked: boom` {
					t.Errorf("%s: Run panicked with %v, want the step's panic wrapped with its name", under, v)
				}
			}()
			k.Run(0)
		}()
		k.Shutdown()
	}
}

func TestStepMustParkOrFinish(t *testing.T) {
	k := NewKernel()
	k.SpawnStep("idle", 0, func(p *Proc) {})
	defer func() {
		v := recover()
		if err, ok := v.(error); !ok || !strings.Contains(err.Error(), `"idle"`) {
			t.Errorf("Run panicked with %v, want an error naming the process", v)
		}
	}()
	k.Run(0)
}

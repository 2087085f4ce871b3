// Live demo: the fault-tolerance framework running on real goroutines
// and wall-clock time (package crt) instead of the simulator. A
// producer streams tokens every few milliseconds through two replica
// pipelines into a selector; halfway through, one replica goroutine is
// stopped, and the counter-based detectors convict it while the
// consumer's stream continues without a hiccup. With -recover (the
// default) the dead replica is then repaired: its goroutine is
// respawned, its replicator queue re-armed from the healthy backlog and
// its selector interface re-synchronized, restoring full redundancy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftpn/internal/codec/adpcm"
	"ftpn/internal/crt"
	"ftpn/internal/obs"
)

type config struct {
	tokens   int64
	period   time.Duration
	duration time.Duration // hard wall-clock cap (0 = uncapped)
	recover  bool
	httpAddr string // observability endpoint ("" = off)

	// onHTTP, when non-nil, receives the endpoint's bound address once
	// it is listening (tests pass ":0" and dial back).
	onHTTP func(addr string)
}

func main() {
	var cfg config
	flag.Int64Var(&cfg.tokens, "tokens", 400, "tokens to stream")
	flag.DurationVar(&cfg.period, "period", 5*time.Millisecond, "producer period")
	flag.DurationVar(&cfg.duration, "duration", 30*time.Second, "hard wall-clock cap on the demo (0 = uncapped)")
	flag.BoolVar(&cfg.recover, "recover", true, "repair, re-integrate and respawn the dead replica")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8080; empty = off)")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "live:", err)
		os.Exit(1)
	}
}

// pipeline is one replica's work loop: read raw PCM from the
// replicator, ADPCM-encode+decode it, forward to the selector. gen
// guards against a superseded incarnation of replica 1 racing its
// respawned successor for queue tokens.
func pipeline(rep *crt.Replicator, sel *crt.Selector, r int, gen *atomic.Int64, mygen int64) {
	for {
		tok, ok := rep.Read(r)
		if !ok {
			return
		}
		if r == 1 && gen.Load() != mygen {
			return // killed (the fault) or superseded by a respawn
		}
		samples := make([]int16, len(tok.Payload)/2)
		for i := range samples {
			samples[i] = int16(tok.Payload[2*i]) | int16(tok.Payload[2*i+1])<<8
		}
		block, err := adpcm.EncodeBlock(samples)
		if err != nil {
			panic(err)
		}
		decoded, err := adpcm.DecodeBlock(block)
		if err != nil {
			panic(err)
		}
		out := make([]byte, len(decoded)*2)
		for i, v := range decoded {
			out[2*i] = byte(v)
			out[2*i+1] = byte(v >> 8)
		}
		if !sel.Write(r, crt.Token{Seq: tok.Seq, Payload: out}) {
			return
		}
	}
}

// serveObs starts the observability endpoint: Prometheus text on
// /metrics, liveness on /healthz (200 healthy, 503 degraded/recovering),
// the flight-recorder tail on /events (?n=128 bounds the tail), the
// forensic conviction explanations on /convictions and the standard
// pprof handlers under /debug/pprof/. It returns the server and its
// bound address.
func serveObs(addr string, reg *obs.Registry, fr *obs.FlightRecorder, health func() string, onScrape func()) (*http.Server, string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if onScrape != nil {
			onScrape()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		evs := fr.Tail(n)
		if evs == nil {
			evs = []obs.FlightEvent{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(evs); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/convictions", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		exs := obs.ExplainAll(fr.Events())
		if exs == nil {
			exs = []obs.Explanation{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(exs); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		st := health()
		w.Header().Set("Content-Type", "application/json")
		if st != "healthy" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "{\"status\":%q}\n", st)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// lockedWriter serializes demo output: fault handlers, the consumer and
// the recovery supervisor all print from their own goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

func run(cfg config, sink io.Writer) error {
	out := &lockedWriter{w: sink}
	clock := crt.NewWallClock()
	start := time.Now()
	done := make(chan struct{})

	// Flight recorder: one stream holds the channel events, convictions
	// and lifecycle events (inject, recover) behind /metrics, /events and
	// /convictions. It is armed only when the HTTP endpoint that serves
	// it is on; a nil recorder hands out a nil stream, which records
	// nothing.
	var fr *obs.FlightRecorder
	if cfg.httpAddr != "" {
		fr = obs.NewFlightRecorder(0)
	}
	flightSt := fr.Stream(0)

	var faultMu sync.Mutex
	var r1Faulted bool
	r1Fault := make(chan crt.Fault, 1)
	onFault := func(f crt.Fault) {
		fmt.Fprintf(out, "  [%8v] DETECTED %s\n", f.At.Round(time.Millisecond), f)
		if f.Replica == 1 {
			faultMu.Lock()
			first := !r1Faulted
			r1Faulted = true
			faultMu.Unlock()
			if first {
				r1Fault <- f
			}
		}
	}

	rep := crt.NewReplicator(clock, "R", [2]int{4, 4}, onFault)
	sel := crt.NewSelector(clock, "S", [2]int{8, 8}, [2]int{3, 3}, 4, onFault)

	// Observability endpoint: the metrics are the flight stream's
	// registry view, installed before the channels are armed; the server
	// stays up for the demo's lifetime.
	if cfg.httpAddr != "" {
		reg := obs.NewRegistry()
		uptime := obs.RegisterBuildInfo(reg, "live-demo")
		flightSt.SetMetrics(reg)
		rep.RecordFlight(flightSt)
		sel.RecordFlight(flightSt)
		health := func() string {
			for r := 1; r <= 2; r++ {
				if f, _ := rep.Faulty(r); f {
					return "degraded"
				}
				if f, _, _ := sel.Faulty(r); f {
					return "degraded"
				}
			}
			if sel.Resyncing(1) || sel.Resyncing(2) {
				return "recovering"
			}
			return "healthy"
		}
		srv, addr, err := serveObs(cfg.httpAddr, reg, fr, health, func() {
			uptime.Set(int64(time.Since(start).Seconds()))
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "observability on http://%s (/metrics, /healthz, /events, /convictions, /debug/pprof/)\n", addr)
		if cfg.onHTTP != nil {
			cfg.onHTTP(addr)
		}
	}

	var gen1 atomic.Int64
	spawn := func(r int) {
		go pipeline(rep, sel, r, &gen1, gen1.Load())
	}
	spawn(1)
	spawn(2)

	// Hard wall-clock cap so a wedged demo cannot hang CI: closing the
	// channels errors out every blocked party.
	var expired atomic.Bool
	if cfg.duration > 0 {
		watchdog := time.AfterFunc(cfg.duration, func() {
			expired.Store(true)
			rep.Close()
			sel.Close()
		})
		defer watchdog.Stop()
	}

	// Consumer: paced at the producer period — a consumer that reads
	// greedily would outrun the slower replica's guarantee and trip the
	// stall detector spuriously (that is eq. 4's whole point: the
	// initial fill covers the consumer's *declared* envelope, not an
	// unbounded appetite).
	consumed := make(chan int64, 1)
	go func() {
		var n int64
		var last time.Duration
		var worst time.Duration
		for {
			clock.Sleep(cfg.period)
			tok, ok := sel.Read()
			if !ok {
				break
			}
			now := clock.Now()
			if tok.Seq > 1 && last > 0 {
				if gap := now - last; gap > worst {
					worst = gap
				}
			}
			last = now
			n++
			if n == cfg.tokens {
				break
			}
		}
		fmt.Fprintf(out, "consumer: %d tokens, worst inter-arrival %v\n", n, worst.Round(time.Millisecond))
		consumed <- n
	}()

	injectAt := time.Duration(cfg.tokens/2) * cfg.period
	fmt.Fprintf(out, "streaming %d tokens at %v; replica 1 dies at %v\n", cfg.tokens, cfg.period, injectAt)
	go func() {
		clock.Sleep(injectAt)
		gen1.Add(1) // the fault: replica 1's goroutine dies at its next token
		flightSt.Record(obs.FlightEvent{
			At: clock.Now().Microseconds(), Kind: obs.FlightInject,
			Reason: "stop-all", Replica: 1,
		})
		fmt.Fprintf(out, "  [%8v] replica 1 goroutine stopped\n", clock.Now().Round(time.Millisecond))
	}()

	// Recovery supervisor: once replica 1 is convicted, wait out a
	// repair delay (restart cost), re-arm its replicator queue from the
	// healthy backlog, put its selector interface into resynchronization
	// and respawn the goroutine — the crt mirror of ft.System.Reintegrate
	// as recover.Manager schedules it.
	recovered := make(chan struct{})
	if cfg.recover {
		go func() {
			defer close(recovered)
			var f crt.Fault
			select {
			case f = <-r1Fault:
			case <-done:
				return
			}
			clock.Sleep(10 * cfg.period)
			if !rep.Reintegrate(1, 3) || !sel.Reintegrate(1) {
				return
			}
			gen1.Add(1)
			spawn(1)
			now := clock.Now()
			flightSt.Record(obs.FlightEvent{
				At: now.Microseconds(), Channel: f.Channel, Kind: obs.FlightRecover,
				Reason: f.Reason, Replica: 1, Aux: (now - f.At).Microseconds(),
			})
			fmt.Fprintf(out, "  [%8v] replica 1 repaired, re-integrated and respawned\n",
				now.Round(time.Millisecond))
		}()
	}

	for i := int64(1); i <= cfg.tokens; i++ {
		payload := make([]byte, 256)
		for j := range payload {
			payload[j] = byte(i + int64(j))
		}
		if !rep.Write(crt.Token{Seq: i, Payload: payload}) {
			break
		}
		clock.Sleep(cfg.period)
	}
	n := <-consumed
	close(done)
	if cfg.recover {
		<-recovered
	}
	rep.Close()
	sel.Close()

	if expired.Load() {
		return fmt.Errorf("demo exceeded the -duration cap of %v", cfg.duration)
	}
	ok1, at := rep.Faulty(1)
	sok1, sat, sreason := sel.Faulty(1)
	fmt.Fprintf(out, "replicator convicted R1: %v (at %v); selector convicted R1: %v (%s at %v)\n",
		ok1, at.Round(time.Millisecond), sok1, sreason, sat.Round(time.Millisecond))
	if n < cfg.tokens-8 {
		return fmt.Errorf("consumer starved despite fault tolerance: %d of %d tokens", n, cfg.tokens)
	}
	if ok2, _ := rep.Faulty(2); ok2 {
		return fmt.Errorf("healthy replica convicted at the replicator")
	}
	if ok2, _, _ := sel.Faulty(2); ok2 {
		return fmt.Errorf("healthy replica convicted at the selector")
	}
	faultMu.Lock()
	detected := r1Faulted
	faultMu.Unlock()
	if !detected {
		return fmt.Errorf("replica 1 fault was never detected")
	}
	if cfg.recover {
		if ok1 || sok1 {
			return fmt.Errorf("replica 1 still convicted after repair + re-integration")
		}
		if sel.Resyncing(1) {
			return fmt.Errorf("replica 1 selector interface never completed resynchronization")
		}
		fmt.Fprintln(out, "replica 1 detected, repaired and re-integrated; full redundancy restored")
	} else {
		fmt.Fprintln(out, "healthy replica kept the stream alive; no false positives")
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestLiveDemoRecovers smoke-tests the wall-clock runtime end-to-end:
// stream, kill replica 1's goroutine, detect, repair + re-integrate +
// respawn, finish with full redundancy and no false positives. The
// -duration cap bounds the test even if something wedges.
func TestLiveDemoRecovers(t *testing.T) {
	var out bytes.Buffer
	cfg := config{tokens: 150, period: 2 * time.Millisecond, duration: 30 * time.Second, recover: true}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "full redundancy restored") {
		t.Errorf("missing recovery confirmation; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DETECTED") {
		t.Errorf("no detection reported; output:\n%s", out.String())
	}
}

// TestLiveDemoWithoutRecovery keeps the original demo path covered: the
// fault is detected and latched, the healthy replica carries the stream.
func TestLiveDemoWithoutRecovery(t *testing.T) {
	var out bytes.Buffer
	cfg := config{tokens: 100, period: 2 * time.Millisecond, duration: 30 * time.Second, recover: false}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no false positives") {
		t.Errorf("missing success line; output:\n%s", out.String())
	}
}

// TestLiveDemoHTTPEndpoint runs the demo with the observability
// endpoint enabled and watches /healthz flip healthy -> degraded (or
// recovering) -> healthy across the fault + recovery arc, while
// /metrics serves the Prometheus exposition and pprof answers.
func TestLiveDemoHTTPEndpoint(t *testing.T) {
	var out bytes.Buffer
	addrCh := make(chan string, 1)
	cfg := config{
		tokens: 300, period: 2 * time.Millisecond, duration: 60 * time.Second,
		recover: true, httpAddr: "127.0.0.1:0",
		onHTTP: func(a string) { addrCh <- a },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- run(cfg, &out) }()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("endpoint never came up")
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// The run starts healthy, degrades at the injected fault, and must
	// report healthy again once the replica is re-integrated.
	deadline := time.Now().Add(30 * time.Second)
	unhealthy := ""
	for time.Now().Before(deadline) {
		if st, body := get("/healthz"); st == http.StatusServiceUnavailable {
			unhealthy = body
			break
		}
		time.Sleep(time.Millisecond)
	}
	if unhealthy == "" {
		t.Fatal("/healthz never reported the fault")
	}
	if !strings.Contains(unhealthy, "degraded") && !strings.Contains(unhealthy, "recovering") {
		t.Errorf("unhealthy body = %q, want degraded or recovering", unhealthy)
	}

	// While the demo still streams: metrics and pprof must serve.
	if st, body := get("/metrics"); st != http.StatusOK ||
		!strings.Contains(body, "ftpn_flight_events_total") ||
		!strings.Contains(body, `kind="drop-slide"`) ||
		!strings.Contains(body, "# TYPE ftpn_flight_fill gauge") ||
		!strings.Contains(body, "ftpn_build_info{") ||
		!strings.Contains(body, "ftpn_process_uptime_seconds") {
		t.Errorf("/metrics status %d, body:\n%.400s", st, body)
	}
	if st, _ := get("/debug/pprof/cmdline"); st != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", st)
	}

	// The flight recorder serves the structured event log and, once the
	// fault has been detected, a causal explanation of the conviction.
	if st, body := get("/events?n=64"); st != http.StatusOK {
		t.Errorf("/events status %d", st)
	} else {
		var evs []map[string]any
		if err := json.Unmarshal([]byte(body), &evs); err != nil {
			t.Errorf("/events is not a JSON array: %v\n%.400s", err, body)
		} else if len(evs) == 0 {
			t.Error("/events returned no events during an active run")
		}
	}
	if st, body := get("/convictions"); st != http.StatusOK {
		t.Errorf("/convictions status %d", st)
	} else {
		var exs []map[string]any
		if err := json.Unmarshal([]byte(body), &exs); err != nil {
			t.Errorf("/convictions is not JSON: %v\n%.400s", err, body)
		} else if len(exs) == 0 {
			t.Error("/convictions empty after a detected fault")
		} else {
			ex := exs[0]
			if ex["fault_mode"] != "stop-all" {
				t.Errorf("conviction fault_mode = %v, want stop-all", ex["fault_mode"])
			}
			if lat, ok := ex["latency_us"].(float64); !ok || lat < 0 {
				t.Errorf("conviction latency_us = %v, want >= 0", ex["latency_us"])
			}
		}
	}

	healthy := false
	for time.Now().Before(deadline) {
		if st, _ := get("/healthz"); st == http.StatusOK {
			healthy = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !healthy {
		t.Error("/healthz never returned to healthy after recovery")
	}
	if err := <-errCh; err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
}

// TestLiveDemoDurationCap verifies the watchdog: an impossibly small
// cap aborts the run with an error instead of hanging.
func TestLiveDemoDurationCap(t *testing.T) {
	var out bytes.Buffer
	cfg := config{tokens: 5000, period: 2 * time.Millisecond, duration: 50 * time.Millisecond, recover: false}
	err := run(cfg, &out)
	if err == nil || !strings.Contains(err.Error(), "duration cap") {
		t.Fatalf("err = %v, want duration-cap abort", err)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h", nil)
	g := r.Gauge("x", "h", nil)
	h := r.Histogram("x_hist", "h", []int64{1, 2}, nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read as zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry WritePrometheus: err=%v len=%d", err, buf.Len())
	}
	var tr *TraceRecorder
	if tr.Events() != 0 {
		t.Error("nil recorder must hold nothing")
	}
}

func TestRegistryIdempotentAndTyped(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total", "help", Labels{"k": "v"})
	c2 := r.Counter("a_total", "help", Labels{"k": "v"})
	if c1 != c2 {
		t.Error("same (name, labels) must return the same counter")
	}
	c3 := r.Counter("a_total", "help", Labels{"k": "w"})
	if c1 == c3 {
		t.Error("different label value must be a distinct series")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as gauge must panic")
		}
	}()
	r.Gauge("a_total", "help", Labels{"k": "v"})
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "h", []int64{1, 4, 16}, nil)
	for _, v := range []int64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 108 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 2`,    // 0, 1
		`lat_bucket{le="4"} 3`,    // + 2
		`lat_bucket{le="16"} 4`,   // + 5
		`lat_bucket{le="+Inf"} 5`, // + 100
		`lat_sum 108`,
		`lat_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []int64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestPrometheusGolden locks the full exposition format: HELP/TYPE once
// per name, series sorted by (name, labels), deterministic output.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("ftpn_ft_drops_total", "Tokens dropped.", Labels{"channel": "F_out", "replica": "2"}).Add(3)
	r.Counter("ftpn_ft_drops_total", "Tokens dropped.", Labels{"channel": "F_out", "replica": "1"}).Add(7)
	r.Gauge("ftpn_ft_fill", "Queue fill.", Labels{"channel": "F_in"}).Set(4)
	h := r.Histogram("ftpn_ft_fill_dist", "Fill distribution.", []int64{1, 2}, Labels{"channel": "F_in"})
	h.Observe(1)
	h.Observe(2)
	h.Observe(9)

	const want = `# HELP ftpn_ft_drops_total Tokens dropped.
# TYPE ftpn_ft_drops_total counter
ftpn_ft_drops_total{channel="F_out",replica="1"} 7
ftpn_ft_drops_total{channel="F_out",replica="2"} 3
# HELP ftpn_ft_fill Queue fill.
# TYPE ftpn_ft_fill gauge
ftpn_ft_fill{channel="F_in"} 4
# HELP ftpn_ft_fill_dist Fill distribution.
# TYPE ftpn_ft_fill_dist histogram
ftpn_ft_fill_dist_bucket{channel="F_in",le="1"} 1
ftpn_ft_fill_dist_bucket{channel="F_in",le="2"} 2
ftpn_ft_fill_dist_bucket{channel="F_in",le="+Inf"} 3
ftpn_ft_fill_dist_sum{channel="F_in"} 12
ftpn_ft_fill_dist_count{channel="F_in"} 3
`
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Encoding twice is identical (determinism).
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two encodings differ")
	}
}

// TestBuildInfoGolden locks the build-info exposition convention:
// constant-1 gauge with the information in labels, plus the
// caller-refreshed uptime gauge.
func TestBuildInfoGolden(t *testing.T) {
	r := NewRegistry()
	uptime := RegisterBuildInfo(r, "v9.9.9-test")
	uptime.Set(42)
	want := fmt.Sprintf(`# HELP ftpn_build_info Build metadata; the value is constant 1.
# TYPE ftpn_build_info gauge
ftpn_build_info{go_version=%q,version="v9.9.9-test"} 1
# HELP ftpn_process_uptime_seconds Seconds since process start (caller-refreshed).
# TYPE ftpn_process_uptime_seconds gauge
ftpn_process_uptime_seconds 42
`, runtime.Version())
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestBuildInfoDefaultsAndNil(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r, "") // "" -> package Version
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `version="`+Version+`"`) {
		t.Errorf("default version missing from exposition:\n%s", buf.String())
	}
	var nilReg *Registry
	if g := RegisterBuildInfo(nilReg, "x"); g != nil {
		t.Error("nil registry must yield a nil uptime gauge")
	}
}

// TestConcurrentHammer drives counters, gauges, histograms and the
// encoders from many goroutines; run under -race this is the registry's
// thread-safety proof, and the counts are exact because updates are
// atomic.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer_total", "h", nil)
			g := r.Gauge("hammer_fill", "h", nil)
			h := r.Histogram("hammer_dist", "h", []int64{8, 64, 512}, Labels{"w": "all"})
			for i := 0; i < perW; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i))
				if i%500 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer_total", "h", nil).Value(); got != workers*perW {
		t.Errorf("counter = %d, want %d", got, workers*perW)
	}
	if got := r.Histogram("hammer_dist", "h", nil, Labels{"w": "all"}).Count(); got != workers*perW {
		t.Errorf("histogram count = %d, want %d", got, workers*perW)
	}
}

func TestTraceRecorder(t *testing.T) {
	tr := NewTraceRecorder()
	tr.counter("F_in fill", "R1", 120, 3)
	tr.counter("F_in fill", "R1", 150, 2)
	tr.instant("fault R1 (queue-full on F_in)", 160)
	tr.flow("s", "forensics F_in", "convict F_in R1", 1, 160)
	if tr.Events() != 4 {
		t.Fatalf("events = %d, want 4", tr.Events())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Metadata (process name + one flow-track thread name; counter
	// tracks key on their event name, not a tid) + 4 events.
	if len(doc.TraceEvents) != 6 {
		t.Errorf("traceEvents = %d, want 6", len(doc.TraceEvents))
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	want := []string{"M", "M", "C", "C", "i", "s"}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "h", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_dist", "h", ExpBuckets(1, 2, 8), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 255))
	}
}

// Package obs is the runtime observability substrate. Its one input is
// the flight recorder's structured event stream (flight.go), which both
// runtimes' channels emit; every view derives from it: a typed metrics
// registry (counters, gauges, fixed-bucket histograms) with a
// Prometheus-text encoder, fed live by a stream's metrics sink; Perfetto-loadable Chrome traces rendered from a finished log;
// and forensic explanations of convictions.
//
// Design constraints, in order:
//
//  1. Zero allocation on the hot path. Updating a metric is one atomic
//     op; histograms use a fixed bucket array scanned linearly.
//  2. Nil-safe disablement. Every update method is defined on a
//     possibly-nil receiver and returns immediately when the metric is
//     nil, so uninstrumented code paths pay exactly one predictable
//     branch per event site. A nil *Registry hands out nil metrics, so
//     "observability off" is the zero value of everything.
//  3. Concurrency-safe. All updates are atomic; registration and
//     encoding take a registry mutex. The package works identically
//     under the single-threaded des kernel and the goroutine-based crt
//     runtime.
//
// Metric naming follows the Prometheus convention used across this
// repository: ftpn_<pkg>_<thing>_total for counters, ftpn_<pkg>_<thing>
// for gauges and histograms (see DESIGN.md §9).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Labels attaches dimension values (channel, replica, reason, ...) to a
// metric instance. Label maps are canonicalized (sorted) at
// registration; lookups and updates never touch them again.
type Labels map[string]string

// kind discriminates the metric types in the registry.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing int64. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (d must be non-negative for Prometheus semantics; this is
// not enforced on the hot path).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. The zero value is ready to use; a nil
// *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 samples. Bucket i
// counts samples v <= bounds[i]; one implicit +Inf bucket catches the
// rest. The zero value is unusable — histograms come from a Registry —
// but a nil *Histogram is a no-op.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one sample: a linear scan over the fixed bounds (small
// by construction) plus two atomic adds; no allocation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets returns n bucket bounds start, start*factor, ... — the
// stock shape for fill and latency histograms.
func ExpBuckets(start, factor int64, n int) []int64 {
	if start <= 0 || factor < 2 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%d,%d,%d) invalid", start, factor, n))
	}
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered series.
type metric struct {
	name string
	help string
	kind kind
	lstr string // canonical {k="v",...} rendering ("" when unlabeled)

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metric series. A nil *Registry hands out nil
// metrics from every constructor, so callers can thread one optional
// pointer through their stack and never branch themselves.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // keyed name + canonical label string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// canonical renders labels sorted as {a="x",b="y"}; "" for none.
func canonical(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", k, labels[k])
	}
	return s + "}"
}

// register returns the series (name, labels), creating it on first use.
// Re-registering with a different kind panics — that is a programming
// error, not a runtime condition.
func (r *Registry) register(name, help string, k kind, labels Labels, mk func(m *metric)) *metric {
	lstr := canonical(labels)
	key := name + lstr
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", key, k, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: k, lstr: lstr}
	mk(m)
	r.metrics[key] = m
	return m
}

// Counter returns the counter series (name, labels), creating it on
// first use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, labels, func(m *metric) {
		m.counter = &Counter{}
	}).counter
}

// Gauge returns the gauge series (name, labels), creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, labels, func(m *metric) {
		m.gauge = &Gauge{}
	}).gauge
}

// Histogram returns the histogram series (name, labels) with the given
// bucket upper bounds (ascending; +Inf is implicit), creating it on
// first use. Bounds are captured at first registration; later calls
// with the same key reuse the existing buckets. A nil registry returns
// a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, bounds []int64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	return r.register(name, help, kindHistogram, labels, func(m *metric) {
		m.hist = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}).hist
}

// snapshot returns the registered series sorted by (name, labels) for
// deterministic encoding.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].lstr < out[j].lstr
	})
	return out
}

package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"

	"ftpn/internal/des"
)

// span is one timed call into a layer, recorded by the benchmark around
// the exported function it calls.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`    // op index the span belongs to
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and kernel scheduler counts for one worker. A nil
// *tracer records nothing, so untraced runs pay one branch per call.
type tracer struct {
	origin time.Time
	run    int
	spans  []span
	open   []int

	resumes, blocks, callbacks int64
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// startRun tags the spans that follow with op index i.
func (t *tracer) startRun(i int) {
	if t != nil {
		t.run = i
	}
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent, Start: time.Since(t.origin).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// attach counts k's process switches, blocks and callback events. The
// kernel runs its processes strictly interleaved on this worker, so the
// counters need no locking.
func (t *tracer) attach(k *des.Kernel) {
	if t == nil {
		return
	}
	k.Trace(func(ev des.TraceEvent) {
		switch ev.Kind {
		case "resume":
			t.resumes++
		case "block":
			t.blocks++
		case "callback":
			t.callbacks++
		}
	})
}

// appendSpans appends one worker's spans, rebasing parent indices.
func appendSpans(dst, src []span) []span {
	off := len(dst)
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums each layer's self time — its spans' durations minus
// the parts their child spans cover — and the total root-span time.
func selfTimes(spans []span) (self map[string]int64, total int64) {
	self = map[string]int64{}
	for _, s := range spans {
		d := s.End - s.Start
		self[layerOf(s.Name)] += d
		if s.Parent >= 0 {
			self[layerOf(spans[s.Parent].Name)] -= d
		} else {
			total += d
		}
	}
	return self, total
}

// spanTime sums the durations of the spans with the given name.
func spanTime(spans []span, name string) int64 {
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// writeSpans writes the span list as one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package obs

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
)

// Version identifies the build in ftpn_build_info. Override at link
// time with -ldflags "-X ftpn/internal/obs.Version=v1.2.3".
var Version = "dev"

// RegisterBuildInfo registers the conventional ftpn_build_info gauge
// (constant 1 — the information lives in its labels: the build version
// and the Go runtime that compiled it) plus a process-uptime gauge,
// which it returns for the caller to refresh (typically per scrape)
// with whole seconds since process start. version "" uses the
// package-level Version. Nil-registry safe.
func RegisterBuildInfo(r *Registry, version string) *Gauge {
	if version == "" {
		version = Version
	}
	r.Gauge("ftpn_build_info", "Build metadata; the value is constant 1.",
		Labels{"version": version, "go_version": runtime.Version()}).Set(1)
	return r.Gauge("ftpn_process_uptime_seconds", "Seconds since process start (caller-refreshed).", nil)
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), sorted by name then labels so the
// output is deterministic. Values are read atomically; a scrape
// concurrent with updates sees a consistent-enough point-in-time view
// (per-series, not cross-series). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var lastName string
	for _, m := range r.snapshot() {
		if m.name != lastName {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
			lastName = m.name
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", m.name, m.lstr, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s%s %d\n", m.name, m.lstr, m.gauge.Value())
		case kindHistogram:
			h := m.hist
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", m.name, withLE(m, fmt.Sprintf("%d", b)), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(bw, "%s_bucket%s %d\n", m.name, withLE(m, "+Inf"), cum)
			fmt.Fprintf(bw, "%s_sum%s %d\n", m.name, m.lstr, h.Sum())
			fmt.Fprintf(bw, "%s_count%s %d\n", m.name, m.lstr, h.Count())
		}
	}
	return bw.Flush()
}

// withLE renders the metric's label string with an le label appended
// (histogram bucket rows).
func withLE(m *metric, le string) string {
	if m.lstr == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("%s,le=%q}", m.lstr[:len(m.lstr)-1], le)
}

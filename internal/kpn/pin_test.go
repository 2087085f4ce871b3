package kpn_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/fault"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/scc"
)

// builtRunPins are digests of duplicated paper-app runs as ft.Build
// builds them: every kernel trace event, every consumer token's
// (arrival, Seq, Stamp, hash) and every detection. They were recorded
// when the apps' split, merge, slice and mux stages were still written
// as coroutine bodies, so they hold the stage machines that replaced
// those bodies to the same event order, timing and streams.
var builtRunPins = map[string]string{
	"mjpeg/none/chip=false":           "99eab55225e90d1342cd4db4",
	"mjpeg/none/chip=true":            "972de88fe1d3e75a556e76f8",
	"mjpeg/stop-all/chip=false":       "26cfb85f9fb41f158d9e87c5",
	"mjpeg/stop-all/chip=true":        "3302013a20013c5a0e576230",
	"mjpeg/stop-consuming/chip=false": "153afd6db46f163bd3bd320f",
	"mjpeg/stop-consuming/chip=true":  "08d5d84d355093adcfb8face",
	"mjpeg/degrade/chip=false":        "5c6264bc3b466cfb7b69aa78",
	"mjpeg/degrade/chip=true":         "52d35e2fa16058047ce31449",
	"adpcm/none/chip=false":           "4ca29e036f3672b42b7c563b",
	"adpcm/none/chip=true":            "5d8e553caa6be8f077a3bdd7",
	"adpcm/stop-all/chip=false":       "9cda7c30e0f8b1aed5ba5af4",
	"adpcm/stop-all/chip=true":        "8ec2dfbe9c15a45cc0cf66c3",
	"adpcm/stop-consuming/chip=false": "36b68d962e700bff11194e5f",
	"adpcm/stop-consuming/chip=true":  "59ff11141c746649a022488b",
	"adpcm/degrade/chip=false":        "715f4099044a5030acb1cf65",
	"adpcm/degrade/chip=true":         "cfe81d21ef80e74703162348",
	"h264/none/chip=false":            "d0ced87dcb1cf0b4351309ce",
	"h264/none/chip=true":             "329b62cc49e3946e01352555",
	"h264/stop-all/chip=false":        "01969bde0cdfa92fafd69233",
	"h264/stop-all/chip=true":         "da8655e512dd1d6fbb67f262",
	"h264/stop-consuming/chip=false":  "217705668d2a5f6ca6b2c64f",
	"h264/stop-consuming/chip=true":   "c14ffaf00bf23643dad61c19",
	"h264/degrade/chip=false":         "6b7231179f48c71b423e5e81",
	"h264/degrade/chip=true":          "0459bae15d80e730178c94e9",
	"radar/none/chip=false":           "7ce5980e9552f9322298b484",
	"radar/none/chip=true":            "aa72488d640d1a1e4067ba8f",
	"radar/stop-all/chip=false":       "f7bcbce1e53c44d0f6c36bf6",
	"radar/stop-all/chip=true":        "247734f1530e8dedce2934f7",
	"radar/stop-consuming/chip=false": "8911403a2d3ee350f7f1e694",
	"radar/stop-consuming/chip=true":  "3d50226d4f32fe29eab437c4",
	"radar/degrade/chip=false":        "dca832ab5dae51682f8df86c",
	"radar/degrade/chip=true":         "9d0ec63f26d1edde1cab060a",
}

// selectorWritePins are digests of the same runs' counted selector
// writes: channel, pair position, Seq and payload hash of every token a
// replica wrote into a selector, enqueued or dropped as a late
// duplicate. The consumer stream never shows a dropped duplicate, so
// these pins are what hold a degraded replica's late writes.
var selectorWritePins = map[string]string{
	"mjpeg/none/chip=false":           "9c2ea23bf9601824a25a5661",
	"mjpeg/none/chip=true":            "9c2ea23bf9601824a25a5661",
	"mjpeg/stop-all/chip=false":       "c9ae24218e9206c83664950c",
	"mjpeg/stop-all/chip=true":        "c9ae24218e9206c83664950c",
	"mjpeg/stop-consuming/chip=false": "126db7c48543cd45202dafef",
	"mjpeg/stop-consuming/chip=true":  "126db7c48543cd45202dafef",
	"mjpeg/degrade/chip=false":        "9712d8fee93f7d42d6ece8cb",
	"mjpeg/degrade/chip=true":         "9712d8fee93f7d42d6ece8cb",
	"adpcm/none/chip=false":           "fb681a05a2a69622561a5b64",
	"adpcm/none/chip=true":            "fb681a05a2a69622561a5b64",
	"adpcm/stop-all/chip=false":       "3dc8677ecc50a6e835e86fb2",
	"adpcm/stop-all/chip=true":        "3dc8677ecc50a6e835e86fb2",
	"adpcm/stop-consuming/chip=false": "3c2ad975a1e05feb57874a20",
	"adpcm/stop-consuming/chip=true":  "3c2ad975a1e05feb57874a20",
	"adpcm/degrade/chip=false":        "695b5520b026e10066bc6469",
	"adpcm/degrade/chip=true":         "695b5520b026e10066bc6469",
	"h264/none/chip=false":            "79192e62cd5675270e5a0a91",
	"h264/none/chip=true":             "79192e62cd5675270e5a0a91",
	"h264/stop-all/chip=false":        "1654e9242b0129f718093fac",
	"h264/stop-all/chip=true":         "1654e9242b0129f718093fac",
	"h264/stop-consuming/chip=false":  "cba82a081291d72ffea704ee",
	"h264/stop-consuming/chip=true":   "cba82a081291d72ffea704ee",
	"h264/degrade/chip=false":         "d9a89f7e0e5cc9204a03ecbb",
	"h264/degrade/chip=true":          "d9a89f7e0e5cc9204a03ecbb",
	"radar/none/chip=false":           "d3dfcba5ffaf2476620c1ec5",
	"radar/none/chip=true":            "d3dfcba5ffaf2476620c1ec5",
	"radar/stop-all/chip=false":       "9d239fea0e566390a49a0e2f",
	"radar/stop-all/chip=true":        "9d239fea0e566390a49a0e2f",
	"radar/stop-consuming/chip=false": "7626915e48faf4f0dda3280a",
	"radar/stop-consuming/chip=true":  "7626915e48faf4f0dda3280a",
	"radar/degrade/chip=false":        "750de9d858c5222819d3835d",
	"radar/degrade/chip=true":         "750de9d858c5222819d3835d",
}

// TestBuiltRunsPinned runs each paper app, with and without an SCC
// chip, fault-free and under stop and degrade faults, and checks the
// run's digest against builtRunPins and its selector writes against
// selectorWritePins. Every process of a built run is a step machine,
// so the kernel switches no coroutine.
func TestBuiltRunsPinned(t *testing.T) {
	apps, err := pairApps()
	if err != nil {
		t.Fatal(err)
	}
	chip, err := scc.New(scc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mjpeg", "adpcm", "h264", "radar"} {
		a := apps[name]
		scheds := pairSchedules(a.app.PeriodUs)
		for _, sched := range []string{"none", "stop-all", "stop-consuming", "degrade"} {
			for _, c := range []*scc.Chip{nil, chip} {
				label := fmt.Sprintf("%s/%s/chip=%v", name, sched, c != nil)
				h, w := sha256.New(), sha256.New()
				stats := runHashed(t, h, w, a, c, scheds[sched])
				if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != builtRunPins[label] {
					t.Errorf("%q: %q, pinned %q", label, got, builtRunPins[label])
				}
				if got := fmt.Sprintf("%x", w.Sum(nil)[:12]); got != selectorWritePins[label] {
					t.Errorf("%q: selector writes %q, pinned %q", label, got, selectorWritePins[label])
				}
				if stats.Switches != 0 || stats.SelfResumes != 0 {
					t.Errorf("%s: %d coroutine switches and %d self-resumes, want none", label, stats.Switches, stats.SelfResumes)
				}
			}
		}
	}
}

// runHashed runs a's duplicated network under the fault steps, writing
// the run's trace, consumer stream and detections to h and its counted
// selector writes to w, and returns the kernel's counters. The writes
// are captured by a value check that passes every token.
func runHashed(t *testing.T, h, w hash.Hash, a pairApp, chip *scc.Chip, steps []faultStep) des.Stats {
	net, err := a.app.Build(func(now des.Time, tok kpn.Token) {
		fmt.Fprintf(h, "c %d %d %d %x\n", now, tok.Seq, tok.Stamp, tok.Hash())
	})
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	k.Trace(func(e des.TraceEvent) { fmt.Fprintf(h, "t %d %s %s\n", e.At, e.Kind, e.Proc) })
	cfg := a.sizing.BuildConfig(a.app)
	cfg.Chip = chip
	cfg.ValueCheck = map[string]ft.ValueCheck{}
	for _, c := range net.Chans {
		if net.Proc(c.From).Role == kpn.RoleCritical && net.Proc(c.To).Role == kpn.RoleConsumer {
			name := c.Name
			cfg.ValueCheck[name] = func(pair int64, tok kpn.Token) bool {
				fmt.Fprintf(w, "w %s %d %d %x\n", name, pair, tok.Seq, tok.Hash())
				return true
			}
		}
	}
	sys, err := ft.Build(k, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		sw := sys.Switches[st.replica-1]
		if st.mode == fault.None {
			sw.RepairAt(st.at)
		} else {
			sw.InjectAt(st.at, st.mode, st.g)
		}
	}
	k.Run(0)
	stats := k.Stats()
	k.Shutdown()
	for _, f := range sys.Faults {
		fmt.Fprintf(h, "f %s %d %d %s %s\n", f.Channel, f.Replica, f.At, f.Reason, f.Kind)
	}
	return stats
}

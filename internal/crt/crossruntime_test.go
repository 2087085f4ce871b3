package crt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
)

// The cross-runtime differential test runs the same single-goroutine,
// never-blocking operation script through the DES channels (driven by
// one zero-delay process) and through the wall-clock channels (driven
// by the test goroutine on a fakeClock). Both runtimes share one
// arbitration core and one flight emitter, so the flight events (kind,
// replica, fill, aux, reason), the tokens read and the (replica, reason)
// fault lists must be identical.

type crossOpKind uint8

const (
	repWrite crossOpKind = iota
	repRead
	repReintegrate
	selWrite
	selRead
	selReintegrate
)

// crossOp is one channel operation; replica is 1-based, seq is the
// written token's stream index and fill the replicator re-arm fill.
type crossOp struct {
	kind    crossOpKind
	replica int
	seq     int64
	fill    int
}

type crossScript struct {
	name     string
	repCaps  [2]int
	selCaps  [2]int
	selInits [2]int
	d        int64
	mk       [2]int // (m,k) policy on both channels; zero keeps the inline path
	ops      []crossOp
}

func w(seq int64) crossOp    { return crossOp{kind: repWrite, seq: seq} }
func rr(replica int) crossOp { return crossOp{kind: repRead, replica: replica} }
func rearm(replica, fill int) crossOp {
	return crossOp{kind: repReintegrate, replica: replica, fill: fill}
}
func sw(replica int, seq int64) crossOp { return crossOp{kind: selWrite, replica: replica, seq: seq} }
func sr() crossOp                       { return crossOp{kind: selRead} }
func resync(replica int) crossOp        { return crossOp{kind: selReintegrate, replica: replica} }
func ops(groups ...[]crossOp) (o []crossOp) {
	for _, g := range groups {
		o = append(o, g...)
	}
	return o
}

// repeat expands fn over seq in [from, to].
func repeat(from, to int64, fn func(seq int64) []crossOp) (o []crossOp) {
	for seq := from; seq <= to; seq++ {
		o = append(o, fn(seq)...)
	}
	return o
}

var crossScripts = []crossScript{
	{
		name: "fault-free pairs", repCaps: [2]int{4, 4}, selCaps: [2]int{4, 4}, d: 3,
		ops: repeat(1, 6, func(seq int64) []crossOp {
			return []crossOp{w(seq), rr(1), rr(2), sw(1, seq), sw(2, seq), sr()}
		}),
	},
	{
		// Nobody reads queue 1: the third write convicts replica 1, and
		// later writes feed replica 2 alone.
		name: "queue-full conviction", repCaps: [2]int{2, 8}, selCaps: [2]int{4, 4},
		ops: ops(repeat(1, 5, func(seq int64) []crossOp { return []crossOp{w(seq)} }),
			[]crossOp{rr(2), rr(2), rr(1)}),
	},
	{
		// mk(2,8) forgives two overflows of queue 1 (dropping its oldest
		// token each time) and convicts on the third.
		name: "mk(2,8) forgives an overflow", repCaps: [2]int{2, 16}, selCaps: [2]int{4, 4}, mk: [2]int{2, 8},
		ops: ops(repeat(1, 4, func(seq int64) []crossOp { return []crossOp{w(seq)} }),
			[]crossOp{rr(1), w(5), w(6), rr(1), rr(2)}),
	},
	{
		// Replica 1 is convicted, re-armed with one token, and overflows
		// again before its first read: the queue slides instead of
		// convicting. After the read, queue-full detection is armed again.
		name: "re-arm then overflow before the first read", repCaps: [2]int{2, 8}, selCaps: [2]int{4, 4},
		ops: ops(repeat(1, 3, func(seq int64) []crossOp { return []crossOp{w(seq)} }),
			[]crossOp{rearm(1, 1), w(4), w(5), w(6), rr(1), w(7), w(8), rr(2), rr(2)}),
	},
	{
		// Replica 2 is silent: divergence convicts it. It re-integrates
		// with a stale token, aligns as the late duplicate of the current
		// pair, then streams on.
		name: "resync: stale token, late-duplicate alignment", repCaps: [2]int{4, 4}, selCaps: [2]int{8, 8}, d: 3,
		ops: ops(repeat(1, 4, func(seq int64) []crossOp { return []crossOp{sw(1, seq)} }),
			[]crossOp{sr(), sr(), sr(), sr(), resync(1), resync(2), sw(2, 2), sw(2, 3), sw(2, 4), sw(2, 5), sr(), sw(1, 5), sw(1, 6), sw(2, 6), sr()}),
	},
	{
		// The re-integrating interface's first token is one past the
		// healthy write front: it aligns as the first of the next pair.
		name: "resync: first-of-next-pair alignment", repCaps: [2]int{4, 4}, selCaps: [2]int{8, 8}, d: 3,
		ops: ops(repeat(1, 4, func(seq int64) []crossOp { return []crossOp{sw(1, seq)} }),
			[]crossOp{sr(), sr(), resync(2), sw(2, 5), sw(1, 5), sr(), sr(), sr(), sw(2, 6), sw(1, 6), sr()}),
	},
	{
		// mk(2,8) forgives a short divergence excursion and a consumer
		// stall, then convicts on a longer one.
		name: "mk(2,8) forgives a selector excursion", repCaps: [2]int{4, 4}, selCaps: [2]int{3, 3}, d: 2, mk: [2]int{2, 8},
		ops: ops(repeat(1, 3, func(seq int64) []crossOp { return []crossOp{sw(1, seq), sr()} }),
			repeat(1, 3, func(seq int64) []crossOp { return []crossOp{sw(2, seq)} }),
			repeat(4, 9, func(seq int64) []crossOp { return []crossOp{sw(1, seq), sr()} })),
	},
}

// crossTrace is what both runtimes must agree on.
type crossTrace struct {
	flight []string // "channel kind Rreplica fill aux reason"
	tokens []int64  // seqs returned by reads, in order
	faults []string // "channel Rreplica reason"
}

// flightLog renders the recorded flight events without their timestamps
// (the runtimes' clocks differ).
func flightLog(fr *obs.FlightRecorder) (out []string) {
	for _, e := range fr.Events() {
		out = append(out, fmt.Sprintf("%s %s R%d fill=%d aux=%d %s", e.Channel, e.Kind, e.Replica, e.Fill, e.Aux, e.Reason))
	}
	return out
}

func (tr *crossTrace) fault(channel string, replica int, reason string) {
	tr.faults = append(tr.faults, fmt.Sprintf("%s R%d %s", channel, replica, reason))
}

func crossPolicy(t *testing.T, mk [2]int) ft.Policy {
	if mk == [2]int{} {
		return nil
	}
	p, err := ft.NewMKPolicy(mk[0], mk[1])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runCrossDES(t *testing.T, sc crossScript) crossTrace {
	var tr crossTrace
	k := des.NewKernel()
	onFault := func(f ft.Fault) { tr.fault(f.Channel, f.Replica, string(f.Reason)) }
	rep := ft.NewReplicator(k, "R", sc.repCaps, onFault)
	sel := ft.NewSelector(k, "S", sc.selCaps, sc.selInits, sc.d, nil, onFault)
	fr := obs.NewFlightRecorder(0)
	st := fr.Stream(0)
	rep.RecordFlight(st, 1)
	sel.RecordFlight(st, 1)
	if p := crossPolicy(t, sc.mk); p != nil {
		rep.SetPolicy(p)
		sel.SetPolicy(crossPolicy(t, sc.mk))
	}
	k.Spawn("driver", 0, func(p *des.Proc) {
		for _, o := range sc.ops {
			switch o.kind {
			case repWrite:
				rep.WriterPort().Write(p, kpn.Token{Seq: o.seq})
			case repRead:
				tr.tokens = append(tr.tokens, rep.ReaderPort(o.replica).Read(p).Seq)
			case repReintegrate:
				rep.Reintegrate(o.replica, o.fill, 0)
			case selWrite:
				sel.WriterPort(o.replica).Write(p, kpn.Token{Seq: o.seq})
			case selRead:
				tr.tokens = append(tr.tokens, sel.ReaderPort().Read(p).Seq)
			case selReintegrate:
				sel.Reintegrate(o.replica)
			}
		}
	})
	k.Run(0)
	k.Shutdown()
	tr.flight = flightLog(fr)
	return tr
}

func runCrossCRT(t *testing.T, sc crossScript) crossTrace {
	var tr crossTrace
	clock := &fakeClock{}
	onFault := func(f Fault) { tr.fault(f.Channel, f.Replica, f.Reason) }
	rep := NewReplicator(clock, "R", sc.repCaps, onFault)
	sel := NewSelector(clock, "S", sc.selCaps, sc.selInits, sc.d, onFault)
	fr := obs.NewFlightRecorder(0)
	st := fr.Stream(0)
	rep.RecordFlight(st)
	sel.RecordFlight(st)
	if p := crossPolicy(t, sc.mk); p != nil {
		rep.SetPolicy(p)
		sel.SetPolicy(crossPolicy(t, sc.mk))
	}
	for _, o := range sc.ops {
		switch o.kind {
		case repWrite:
			rep.Write(Token{Seq: o.seq})
		case repRead:
			tok, _ := rep.Read(o.replica)
			tr.tokens = append(tr.tokens, tok.Seq)
		case repReintegrate:
			rep.Reintegrate(o.replica, o.fill)
		case selWrite:
			sel.Write(o.replica, Token{Seq: o.seq})
		case selRead:
			tok, _ := sel.Read()
			tr.tokens = append(tr.tokens, tok.Seq)
		case selReintegrate:
			sel.Reintegrate(o.replica)
		}
		clock.Sleep(1)
	}
	rep.Close()
	sel.Close()
	tr.flight = flightLog(fr)
	return tr
}

func TestCrossRuntimeChannelsAgree(t *testing.T) {
	for _, sc := range crossScripts {
		t.Run(sc.name, func(t *testing.T) {
			d, c := runCrossDES(t, sc), runCrossCRT(t, sc)
			if !reflect.DeepEqual(d.flight, c.flight) {
				t.Errorf("flight events differ\nDES: %q\ncrt: %q", d.flight, c.flight)
			}
			if !reflect.DeepEqual(d.tokens, c.tokens) {
				t.Errorf("tokens read differ\nDES: %v\ncrt: %v", d.tokens, c.tokens)
			}
			if !reflect.DeepEqual(d.faults, c.faults) {
				t.Errorf("faults differ\nDES: %q\ncrt: %q", d.faults, c.faults)
			}
			if len(d.flight) == len(d.faults) {
				t.Error("script produced no channel events")
			}
			convicts := 0
			for _, e := range d.flight {
				if strings.Contains(e, " "+obs.FlightConvict+" ") {
					convicts++
				}
			}
			if convicts != len(d.faults) {
				t.Errorf("convict events = %d, want one per fault (%d)", convicts, len(d.faults))
			}
		})
	}
}

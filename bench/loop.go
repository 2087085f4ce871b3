package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// bench is one workload after set-up, ready to be measured.
type bench interface {
	measure(mc measureConfig) (*measurement, error)
}

// measureConfig is one measurement of a set-up workload.
type measureConfig struct {
	workers int
	seconds float64
	traced  bool
}

// workloadDef names a workload and builds its inputs from a seed.
type workloadDef struct {
	name  string
	setup func(seed int64) (bench, error)
}

// workloads are the benchmark's workloads; README.md says why each
// exists and which layer it stresses.
var workloads = []workloadDef{
	{"campaign", setupCampaign},
	{"apps_cold", setupAppsCold},
	{"topo_fleet", setupTopoFleet},
	{"live_crt", setupLiveCRT},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// digestOps is how many leading ops sim_digest covers. Every
// measurement runs at least this many, so the digest is defined by the
// seed alone, whatever the run length or worker count.
const digestOps = 32

// maxProblems caps the failed-check messages a report carries.
const maxProblems = 10

// measurement is what one measured interval produced.
type measurement struct {
	ops, failed  int
	tokens       int64
	elapsed      time.Duration
	p50us, p99us float64
	digest       uint64
	digestOps    int
	problems     []string
	windows      windows
	counts       counts
	spans        []span // traced runs only
}

// counts are per-layer work counters read from the layers' public
// counters (and, on traced runs, from the kernel tracer).
type counts struct {
	events     uint64 // des: Kernel.Dispatched
	resumes    int64  // des: process switches (traced)
	blocks     int64  // des: processes blocking on a signal (traced)
	callbacks  int64  // des: callback events (traced)
	chanOps    int64  // ft/crt: replicator and selector reads and writes
	selWrites  int64  // ft/crt: selector writes attempted
	selQueued  int64  // ft/crt: selector writes enqueued (not dropped duplicates)
	flight     int64  // obs: flight-recorder events
	recoveries int64  // recover: completed recoveries
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.resumes += o.resumes
	c.blocks += o.blocks
	c.callbacks += o.callbacks
	c.chanOps += o.chanOps
	c.selWrites += o.selWrites
	c.selQueued += o.selQueued
	c.flight += o.flight
	c.recoveries += o.recoveries
}

// arcs count a campaign run's fault arcs, for the cross-check against
// exp.Campaign in bench_test.go.
type arcs struct {
	detected, recovered, secondInjected, secondDetected, violating int
}

func (a *arcs) add(o arcs) {
	a.detected += o.detected
	a.recovered += o.recovered
	a.secondInjected += o.secondInjected
	a.secondDetected += o.secondDetected
	a.violating += o.violating
}

// opResult is one DES op's outcome.
type opResult struct {
	tokens   int64
	digest   uint64
	counts   counts
	arcs     arcs
	problems []string
}

func (r *opResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// requireWork fails an op that simulated nothing.
func (r *opResult) requireWork() {
	if r.counts.events == 0 || r.tokens == 0 {
		r.fail("run did no work (%d events, %d tokens)", r.counts.events, r.tokens)
	}
}

// desOp runs op i of a DES workload; tr is nil on untraced runs.
type desOp func(i int, tr *tracer) opResult

// runDES measures a DES workload as a closed loop: each worker takes the
// next op index as soon as its previous op finishes, until the time is
// up and at least digestOps ops ran. Indices are claimed in order and
// every claimed op completes, so the ops run are exactly 0..n-1 and
// results aggregate in index order — the digest is the same at any
// worker count.
func runDES(mc measureConfig, op desOp) (*measurement, error) {
	type done struct {
		i        int
		end, dur time.Duration
		res      opResult
	}
	limit := time.Duration(mc.seconds * float64(time.Second))
	var next atomic.Int64
	per := make([][]done, mc.workers)
	tracers := make([]*tracer, mc.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range mc.workers {
		if mc.traced {
			tracers[w] = newTracer(start)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := tracers[w]
			for time.Since(start) < limit || next.Load() < digestOps {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				res := runOp(op, i, tr)
				per[w] = append(per[w], done{i, time.Since(start), time.Since(t0), res})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	all := make([]done, 0, next.Load())
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	m := &measurement{ops: len(all), elapsed: elapsed, digest: fnvOffset, digestOps: digestOps}
	durs := make([]float64, len(all))
	for j, d := range all {
		durs[j] = float64(d.dur.Nanoseconds()) / 1e3
		m.tokens += d.res.tokens
		m.windows.add(d.end, d.res.tokens)
		m.counts.add(d.res.counts)
		if j < digestOps {
			m.digest = fnvAdd(m.digest, d.res.digest)
		}
		if len(d.res.problems) > 0 {
			m.failed++
			if len(m.problems) < maxProblems {
				m.problems = append(m.problems, fmt.Sprintf("op %d: %s", d.i, strings.Join(d.res.problems, "; ")))
			}
		}
	}
	sort.Float64s(durs)
	m.p50us, m.p99us = percentile(durs, 0.50), percentile(durs, 0.99)
	for _, tr := range tracers {
		if tr != nil {
			m.counts.resumes += tr.resumes
			m.counts.blocks += tr.blocks
			m.counts.callbacks += tr.callbacks
			m.spans = appendSpans(m.spans, tr.spans)
		}
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	return m, nil
}

// runOp runs one op, reporting a panic as the op's failure.
func runOp(op desOp, i int, tr *tracer) (res opResult) {
	defer func() {
		if v := recover(); v != nil {
			res.fail("panic: %v", v)
		}
	}()
	tr.startRun(i)
	root := tr.begin("bench.op")
	res = op(i, tr)
	tr.end(root)
	return res
}

// rateWindow is the interval throughput is counted over; a run reports
// the median of its full windows, so a passing burst of interference
// from other processes moves it less than it moves the mean.
const rateWindow = time.Second

// window counts the ops and tokens completed in one rateWindow.
type window struct{ ops, tokens int64 }

// windows are a measurement's per-rateWindow completion counts.
type windows []window

// add counts one op that completed at offset at with tokens tokens.
func (ws *windows) add(at time.Duration, tokens int64) {
	k := int(at / rateWindow)
	for len(*ws) <= k {
		*ws = append(*ws, window{})
	}
	(*ws)[k].ops++
	(*ws)[k].tokens += tokens
}

// rates returns ops and tokens per second: the median over the full
// windows when there are at least three, else the totals over the
// elapsed time.
func (m *measurement) rates() (opsPerS, tokensPerS float64) {
	full := min(int(m.elapsed/rateWindow), len(m.windows))
	if full < 3 {
		return float64(m.ops) / m.elapsed.Seconds(), float64(m.tokens) / m.elapsed.Seconds()
	}
	ops, tokens := make([]float64, full), make([]float64, full)
	for k, w := range m.windows[:full] {
		ops[k] = float64(w.ops) / rateWindow.Seconds()
		tokens[k] = float64(w.tokens) / rateWindow.Seconds()
	}
	return median(ops), median(tokens)
}

// check refuses a measurement that measured nothing.
func (m *measurement) check() error {
	if m.ops == 0 || m.tokens == 0 || m.elapsed < time.Millisecond {
		return fmt.Errorf("%w: %d ops, %d tokens in %v", errNothingMeasured, m.ops, m.tokens, m.elapsed)
	}
	return nil
}

// percentile returns the nearest-rank q-quantile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// FNV-1a, folded eight bytes at a time so digests need no allocation.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvAdd(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// tokenID identifies a consumer token for stream comparison: its
// sequence number and payload hash.
type tokenID struct {
	seq  int64
	hash uint64
}

// streamDigest folds a consumer stream into h.
func streamDigest(h uint64, stream []tokenID) uint64 {
	for _, t := range stream {
		h = fnvAdd(fnvAdd(h, uint64(t.seq)), t.hash)
	}
	return h
}

// sameStream reports the first difference between a run's consumer
// stream and its golden reference ("" when identical).
func sameStream(got, want []tokenID) string {
	if len(got) != len(want) {
		return fmt.Sprintf("consumer stream has %d tokens, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("consumer token %d = (seq %d, hash %x), golden (seq %d, hash %x)",
				i, got[i].seq, got[i].hash, want[i].seq, want[i].hash)
		}
	}
	return ""
}

// splitmix64 derives independent per-op seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// opSeed is op i's input seed under run seed.
func opSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)*0x100000001B3+uint64(i)) >> 1)
}

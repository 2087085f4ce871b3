package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ftpn/internal/crt"
	"ftpn/internal/des"
)

// live_crt streams tokens through the wall-clock runtime: producer →
// crt.Replicator → two forwarding replica goroutines → crt.Selector →
// consumer. It is a closed loop of crtWindow tokens: the producer
// writes token n only after the consumer has read token n-crtWindow,
// and the consumer reads token n only after both replicas delivered it,
// so no queue ever holds more than crtWindow tokens and no detector can
// fire on the healthy pipeline (a conviction fails the run).
const (
	crtWindow       = 4
	crtPayloadBytes = 64
	crtPayloads     = 1 << 14 // distinct seeded payloads, cycled by Seq
	crtWarmupTokens = 1 << 16
)

type liveCRTBench struct {
	payloads [][]byte
}

// setupLiveCRT draws the payload pool from the seed and warms the
// runtime up with a short stream through a throwaway pipeline.
func setupLiveCRT(seed int64) (bench, error) {
	buf := make([]byte, crtPayloads*crtPayloadBytes)
	rand.New(rand.NewSource(seed)).Read(buf)
	b := &liveCRTBench{payloads: make([][]byte, crtPayloads)}
	for i := range b.payloads {
		b.payloads[i] = buf[i*crtPayloadBytes : (i+1)*crtPayloadBytes : (i+1)*crtPayloadBytes]
	}
	m, err := b.stream(crtWarmupTokens, 0, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if m.failed != 0 {
		return nil, fmt.Errorf("warm-up failed: %v", m.problems)
	}
	return b, nil
}

func (b *liveCRTBench) measure(mc measureConfig) (*measurement, error) {
	return b.stream(digestOps, mc.seconds, mc.traced)
}

// crtPipeline is one live pipeline's channels.
type crtPipeline struct {
	rep     *crt.Replicator
	sel     *crt.Selector
	acks    [2]*crt.FIFO // replica r -> consumer: "token delivered to the selector"
	credits *crt.FIFO    // consumer -> producer: "token consumed"
	abort   sync.Once
}

// shutdown closes every channel, which unblocks every party.
func (p *crtPipeline) shutdown() {
	p.abort.Do(func() {
		p.rep.Close()
		p.sel.Close()
		p.acks[0].Close()
		p.acks[1].Close()
		p.credits.Close()
	})
}

// crtConsumer is the consumer goroutine's state, read after it exits.
type crtConsumer struct {
	hist     *latencyHist
	windows  windows
	consumed int64
	bad      int64
	firstBad string
	digest   uint64
}

// stream runs one pipeline for at least minTokens tokens and seconds.
func (b *liveCRTBench) stream(minTokens int64, seconds float64, traced bool) (*measurement, error) {
	clock := crt.NewWallClock()
	var convictions atomic.Int64
	var firstFault atomic.Pointer[crt.Fault]
	p := &crtPipeline{}
	onFault := func(f crt.Fault) {
		firstFault.CompareAndSwap(nil, &f)
		convictions.Add(1)
		p.shutdown()
	}
	p.rep = crt.NewReplicator(clock, "in", [2]int{2 * crtWindow, 2 * crtWindow}, onFault)
	p.sel = crt.NewSelector(clock, "out", [2]int{2 * crtWindow, 2 * crtWindow}, [2]int{0, 0}, 2*crtWindow, onFault)
	p.acks = [2]*crt.FIFO{crt.NewFIFO("ack1", crtWindow), crt.NewFIFO("ack2", crtWindow)}
	p.credits = crt.NewFIFO("credits", crtWindow)

	var wg sync.WaitGroup
	var replicaReads [2]int64
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tok, ok := p.rep.Read(r)
				if !ok || !p.sel.Write(r, tok) || !p.acks[r-1].Write(crt.Token{}) {
					return
				}
				replicaReads[r-1]++
			}
		}()
	}
	c := &crtConsumer{hist: &latencyHist{}, digest: fnvOffset}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.consume(p, clock, c)
	}()

	limit := time.Duration(seconds * float64(time.Second))
	// A wedged pipeline must not hang the benchmark: past the limit plus
	// a grace period, close everything and report what arrived.
	watchdog := time.AfterFunc(limit+10*time.Second, p.shutdown)
	var tr *tracer
	start := time.Now()
	if traced {
		tr = newTracer(start)
		tr.startRun(0)
	}
	root := tr.begin("bench.op")
	sp := tr.begin("crt.stream")
	var n int64
	for n < minTokens || n%256 != 0 || time.Since(start) < limit {
		if n >= crtWindow {
			if _, ok := p.credits.Read(); !ok {
				break
			}
		}
		n++
		tok := crt.Token{Seq: n, Stamp: des.Time(clock.Now()), Payload: b.payloads[n%crtPayloads]}
		if !p.rep.Write(tok) {
			break
		}
	}
	for i := int64(0); i < min(n, crtWindow); i++ {
		if _, ok := p.credits.Read(); !ok {
			break
		}
	}
	elapsed := time.Since(start)
	tr.end(sp)
	tr.end(root)
	watchdog.Stop()
	p.shutdown()
	wg.Wait()

	m := &measurement{ops: int(n), tokens: c.consumed, elapsed: elapsed, windows: c.windows, digest: c.digest, digestOps: digestOps}
	m.p50us = c.hist.quantile(0.50) / 1e3
	m.p99us = c.hist.quantile(0.99) / 1e3
	var drops int64
	for r := 1; r <= 2; r++ {
		m.counts.selWrites += p.sel.Writes(r)
		drops += p.sel.Drops(r)
	}
	m.counts.selQueued = m.counts.selWrites - drops
	m.counts.chanOps = n + replicaReads[0] + replicaReads[1] + m.counts.selWrites + c.consumed
	if tr != nil {
		m.spans = tr.spans
	}
	m.failed = int(c.bad + (n - c.consumed))
	if c.firstBad != "" {
		m.problems = append(m.problems, c.firstBad)
	}
	if missing := n - c.consumed; missing > 0 {
		m.problems = append(m.problems, fmt.Sprintf("%d of %d tokens never reached the consumer", missing, n))
	}
	if f := firstFault.Load(); f != nil {
		m.failed += int(convictions.Load())
		m.problems = append(m.problems, fmt.Sprintf("healthy pipeline convicted: %v", *f))
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	return m, nil
}

// consume reads tokens in order once both replicas delivered them,
// checking Seq order, exactly-once delivery and the payload, and timing
// each token from the producer's write to the selector read.
func (b *liveCRTBench) consume(p *crtPipeline, clock *crt.WallClock, c *crtConsumer) {
	for expect := int64(1); ; expect++ {
		if _, ok := p.acks[0].Read(); !ok {
			return
		}
		if _, ok := p.acks[1].Read(); !ok {
			return
		}
		tok, ok := p.sel.Read()
		if !ok {
			return
		}
		now := clock.Now()
		c.hist.add(now - time.Duration(tok.Stamp))
		c.windows.add(now, 1)
		if tok.Seq != expect || !bytes.Equal(tok.Payload, b.payloads[expect%crtPayloads]) {
			c.bad++
			if c.firstBad == "" {
				c.firstBad = fmt.Sprintf("token %d arrived as Seq %d (or with a wrong payload)", expect, tok.Seq)
			}
		}
		if expect <= digestOps {
			c.digest = fnvAdd(c.digest, uint64(tok.Seq))
			for _, x := range tok.Payload {
				c.digest = (c.digest ^ uint64(x)) * fnvPrime
			}
		}
		c.consumed++
		if !p.credits.Write(crt.Token{}) {
			return
		}
	}
}

// histLinear is the latency histogram's exact range in nanoseconds.
const histLinear = 1 << 16

// latencyHist counts latencies at 1 ns resolution below histLinear and
// in power-of-two buckets above it, so percentiles are exact where the
// mass is and recording allocates nothing.
type latencyHist struct {
	lin  [histLinear]uint32
	over [65]uint64
	n    int64
}

func (h *latencyHist) add(d time.Duration) {
	ns := max(d.Nanoseconds(), 0)
	if ns < histLinear {
		h.lin[ns]++
	} else {
		h.over[bits.Len64(uint64(ns))]++
	}
	h.n++
}

// quantile returns the nearest-rank q-quantile in nanoseconds (the
// bucket's upper edge above histLinear).
func (h *latencyHist) quantile(q float64) float64 {
	rank := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for ns, c := range h.lin {
		if seen += int64(c); seen >= rank && c > 0 {
			return float64(ns)
		}
	}
	for b, c := range h.over {
		if seen += int64(c); seen >= rank && c > 0 {
			return math.Ldexp(1, b)
		}
	}
	return 0
}

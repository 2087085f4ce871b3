package ft

import (
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
)

// This file is the glue between the fault-tolerant channels and the
// observability substrate (internal/obs): Instrument turns probe events
// into registry metrics, InstrumentTrace turns them into Chrome-trace
// timeline tracks and markers. Both pre-register every series up front
// so the per-event work is a switch plus one atomic update — nothing
// allocates on the hot path.

// chainProbe composes probes so Instrument and InstrumentTrace can both
// observe the same channel.
func chainProbe(old, add Probe) Probe {
	if old == nil {
		return add
	}
	return func(e ProbeEvent) {
		old(e)
		add(e)
	}
}

// replicaLabels returns {channel, replica} labels for 1-based r.
func replicaLabels(channel string, r int) obs.Labels {
	return obs.Labels{"channel": channel, "replica": fmt.Sprintf("%d", r)}
}

// fillBuckets is the stock histogram shape for queue-fill distributions:
// queue capacities across the experiments stay well under 256.
var fillBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// fifoMetrics adapts a plain FIFO's Observer events to fill metrics.
type fifoMetrics struct {
	fill *obs.Gauge
	dist *obs.Histogram
}

func (m fifoMetrics) OnWrite(now des.Time, tok kpn.Token, fill int) {
	m.fill.Set(int64(fill))
	m.dist.Observe(int64(fill))
}

func (m fifoMetrics) OnRead(now des.Time, tok kpn.Token, fill int) {
	m.fill.Set(int64(fill))
	m.dist.Observe(int64(fill))
}

// Instrument registers the system's channel metrics in reg and installs
// probes that keep them current (see DESIGN.md §9 for the naming
// scheme). Detection events are counted through a fault hook, so
// len(sys.Faults) always equals the sum over ftpn_ft_faults_total.
// Instrumenting with a nil registry is a no-op. Instrument composes
// with InstrumentTrace and with previously installed probes.
func Instrument(sys *System, reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, r := range sortedValues(sys.Replicators) {
		r := r
		name := r.Name()
		chLabel := obs.Labels{"channel": name}
		writes := reg.Counter("ftpn_ft_rep_writes_total", "Tokens accepted from the producer.", chLabel)
		lost := reg.Counter("ftpn_ft_rep_lost_total", "Tokens lost because every replica was faulty.", chLabel)
		var enq, reads, slide, reint, forgiven [2]*obs.Counter
		var fill [2]*obs.Gauge
		var dist [2]*obs.Histogram
		for i := 0; i < 2; i++ {
			rl := replicaLabels(name, i+1)
			enq[i] = reg.Counter("ftpn_ft_rep_enqueued_total", "Tokens duplicated into a replica queue.", rl)
			reads[i] = reg.Counter("ftpn_ft_rep_reads_total", "Tokens consumed by a replica.", rl)
			slide[i] = reg.Counter("ftpn_ft_rep_slide_drops_total", "Oldest tokens discarded by post-recovery queue re-arming.", rl)
			reint[i] = reg.Counter("ftpn_ft_reintegrations_total", "Replica re-admissions after repair.", rl)
			forgiven[i] = reg.Counter("ftpn_ft_forgiven_total", "Detection violations ridden out by the (m,k) policy.", rl)
			fill[i] = reg.Gauge("ftpn_ft_rep_fill", "Current replica queue fill.", rl)
			dist[i] = reg.Histogram("ftpn_ft_rep_fill_dist", "Replica queue fill observed at enqueue/read.", fillBuckets, rl)
		}
		r.SetProbe(chainProbe(r.probe, func(e ProbeEvent) {
			switch e.Kind {
			case ProbeWrite:
				writes.Inc()
			case ProbeEnqueue:
				enq[e.Replica-1].Inc()
				fill[e.Replica-1].Set(int64(e.Fill))
				dist[e.Replica-1].Observe(int64(e.Fill))
			case ProbeRead:
				reads[e.Replica-1].Inc()
				fill[e.Replica-1].Set(int64(e.Fill))
				dist[e.Replica-1].Observe(int64(e.Fill))
			case ProbeDropSlide:
				slide[e.Replica-1].Inc()
			case ProbeDropLost:
				lost.Inc()
			case ProbeForgiven:
				forgiven[e.Replica-1].Inc()
			case ProbeReintegrate:
				reint[e.Replica-1].Inc()
				fill[e.Replica-1].Set(int64(e.Fill))
			}
		}))
	}
	for _, s := range sortedValues(sys.Selectors) {
		s := s
		name := s.Name()
		chLabel := obs.Labels{"channel": name}
		reads := reg.Counter("ftpn_ft_sel_reads_total", "Tokens delivered to the consumer.", chLabel)
		fill := reg.Gauge("ftpn_ft_sel_fill", "Current shared FIFO fill.", chLabel)
		dist := reg.Histogram("ftpn_ft_sel_fill_dist", "Shared FIFO fill observed at write/read.", fillBuckets, chLabel)
		var enq, dup, rsd, aligned, reint, forgiven, vdrop [2]*obs.Counter
		var lead [2]*obs.Gauge
		for i := 0; i < 2; i++ {
			rl := replicaLabels(name, i+1)
			enq[i] = reg.Counter("ftpn_ft_sel_enqueued_total", "Pair-first tokens enqueued by an interface.", rl)
			dup[i] = reg.Counter("ftpn_ft_sel_dup_drops_total", "Late duplicates discarded by arbitration.", rl)
			rsd[i] = reg.Counter("ftpn_ft_sel_resync_drops_total", "Stale tokens discarded during resynchronization.", rl)
			aligned[i] = reg.Counter("ftpn_ft_sel_aligned_total", "Resynchronizations completed at an alignment point.", rl)
			reint[i] = reg.Counter("ftpn_ft_reintegrations_total", "Replica re-admissions after repair.", rl)
			forgiven[i] = reg.Counter("ftpn_ft_forgiven_total", "Detection violations ridden out by the (m,k) policy.", rl)
			vdrop[i] = reg.Counter("ftpn_ft_sel_value_drops_total", "Tokens discarded by the replay value cross-check.", rl)
			lead[i] = reg.Gauge("ftpn_ft_sel_lead", "Interface pair-index lead over the other side.", rl)
		}
		s.SetProbe(chainProbe(s.probe, func(e ProbeEvent) {
			switch e.Kind {
			case ProbeEnqueue:
				enq[e.Replica-1].Inc()
				fill.Set(int64(e.Fill))
				dist.Observe(int64(e.Fill))
				lead[e.Replica-1].Set(e.Lead)
			case ProbeDropDuplicate:
				dup[e.Replica-1].Inc()
				lead[e.Replica-1].Set(e.Lead)
			case ProbeRead:
				reads.Inc()
				fill.Set(int64(e.Fill))
				dist.Observe(int64(e.Fill))
			case ProbeDropResync:
				rsd[e.Replica-1].Inc()
			case ProbeAligned:
				aligned[e.Replica-1].Inc()
			case ProbeForgiven:
				forgiven[e.Replica-1].Inc()
			case ProbeDropValue:
				vdrop[e.Replica-1].Inc()
			case ProbeReintegrate:
				reint[e.Replica-1].Inc()
			}
		}))
	}
	// Plain FIFOs (internal replica channels and reliable-to-reliable
	// links) expose fill through the kpn observer interface.
	for _, n := range sortedKeys(sys.FIFOs) {
		l := obs.Labels{"channel": n}
		sys.FIFOs[n].Observe(fifoMetrics{
			fill: reg.Gauge("ftpn_kpn_fifo_fill", "Current plain FIFO fill.", l),
			dist: reg.Histogram("ftpn_kpn_fifo_fill_dist", "Plain FIFO fill observed at write/read.", fillBuckets, l),
		})
	}
	sys.AddFaultHook(func(f Fault) {
		reg.Counter("ftpn_ft_faults_total", "Detection events by channel, replica and reason.",
			obs.Labels{"channel": f.Channel, "replica": fmt.Sprintf("%d", f.Replica), "reason": string(f.Reason)}).Inc()
	})
}

// InstrumentTrace installs probes that record every channel's fill
// trajectory as Chrome-trace counter tracks and every fault and
// re-integration phase as global instant markers. It composes with
// Instrument; a nil recorder is a no-op.
func InstrumentTrace(sys *System, rec *obs.TraceRecorder) {
	if rec == nil {
		return
	}
	for _, r := range sortedValues(sys.Replicators) {
		r := r
		track := "fill " + r.Name()
		r.SetProbe(chainProbe(r.probe, func(e ProbeEvent) {
			switch e.Kind {
			case ProbeEnqueue, ProbeRead:
				rec.Counter(track, fmt.Sprintf("R%d", e.Replica), e.At, int64(e.Fill))
			case ProbeReintegrate:
				rec.Instant(fmt.Sprintf("reintegrate R%d on %s (fill %d)", e.Replica, e.Channel, e.Fill), e.At)
			case ProbeForgiven:
				rec.Instant(fmt.Sprintf("forgiven R%d on %s (lead %d)", e.Replica, e.Channel, e.Lead), e.At)
			}
		}))
	}
	for _, s := range sortedValues(sys.Selectors) {
		s := s
		track := "fill " + s.Name()
		s.SetProbe(chainProbe(s.probe, func(e ProbeEvent) {
			switch e.Kind {
			case ProbeEnqueue, ProbeRead:
				rec.Counter(track, "S", e.At, int64(e.Fill))
			case ProbeReintegrate:
				rec.Instant(fmt.Sprintf("resync start R%d on %s", e.Replica, e.Channel), e.At)
			case ProbeAligned:
				rec.Instant(fmt.Sprintf("realigned R%d on %s", e.Replica, e.Channel), e.At)
			case ProbeForgiven:
				rec.Instant(fmt.Sprintf("forgiven R%d on %s (lead %d)", e.Replica, e.Channel, e.Lead), e.At)
			case ProbeDropValue:
				rec.Instant(fmt.Sprintf("value drop R%d on %s", e.Replica, e.Channel), e.At)
			}
		}))
	}
	sys.AddFaultHook(func(f Fault) {
		rec.Instant(fmt.Sprintf("%s fault R%d on %s (%s)", f.Kind, f.Replica, f.Channel, f.Reason), f.At)
	})
}

package ft

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/obs"
)

// The fuzz targets interpret the input bytes as a schedule — queue
// capacities, detection thresholds, per-token delays, an optional
// outage window with a re-integration — and drive the channel through
// the resulting interleaving on the DES kernel. Three properties are
// machine-checked on every schedule:
//
//   - stream integrity: the consumer-facing token stream is the gapless
//     ascending sequence 1..n regardless of interleaving, convictions
//     or re-integration (per-replica streams stay strictly increasing);
//   - counter identities: CheckInvariants holds when the run settles;
//   - no false positives: a symmetric schedule (identical replica
//     timing, no outage) convicts nobody, and a freshly re-integrated
//     replicator queue never convicts on queue-full before the
//     replica's first post-recovery read (the slide grace).
//
// fuzzScript cycles over the fuzz input so every draw is defined even
// for short inputs.
type fuzzScript struct {
	data []byte
	pos  int
}

func (f *fuzzScript) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	v := f.data[f.pos%len(f.data)]
	f.pos++
	return v
}

const fuzzTokens = 24

// selectorSeeds are FuzzSelectorInterleavings' built-in seeds.
var selectorSeeds = [][]byte{
	{0},                               // symmetric, minimal
	{1, 3, 5, 2, 0, 4, 1, 1, 2, 3},    // asymmetric delays
	{2, 6, 2, 4, 9, 3, 0, 1, 7, 2, 5}, // outage + re-integration
	{2, 0, 0, 19, 1, 0, 0, 0, 0, 0},   // resume far behind (stale drops)
	{2, 7, 7, 3, 17, 9, 9, 9, 1, 1},   // resume ahead (park on resyncWait)
}

// replicatorSeeds are FuzzReplicatorInterleavings' built-in seeds.
var replicatorSeeds = [][]byte{
	{0},                                // symmetric, minimal
	{1, 4, 2, 6, 1, 0, 3, 2, 4, 1},     // asymmetric delays
	{2, 5, 5, 3, 8, 3, 12, 2, 1, 4, 0}, // outage + re-arm + slide window
	{2, 2, 2, 0, 5, 7, 25, 1, 1, 1, 1}, // long pause after re-arm (slide stress)
	{2, 6, 6, 6, 10, 0, 0, 3, 3, 3, 3}, // re-arm with empty fill
}

// streamDigest hashes a channel's flight-event stream (convictions
// aside) and its fault list; the golden test pins the digests of every
// fuzz seed.
type streamDigest struct{ fr *obs.FlightRecorder }

// digestCap bounds a schedule's flight log: fuzzTokens tokens produce a
// few hundred events at most.
const digestCap = 1 << 12

func newStreamDigest() *streamDigest { return &streamDigest{fr: obs.NewFlightRecorder(digestCap)} }

func (d *streamDigest) sum(t testing.TB, faults []Fault) uint64 {
	if n := d.fr.Dropped(); n > 0 {
		t.Fatalf("flight ring overwrote %d events; raise digestCap", n)
	}
	h := fnv.New64a()
	for _, e := range d.fr.Events() {
		if e.Kind != obs.FlightConvict {
			fmt.Fprintf(h, "%d %s %s %d %d %d\n", e.At, e.Channel, e.Kind, e.Replica, e.Fill, e.Aux)
		}
	}
	for _, f := range faults {
		fmt.Fprintf(h, "fault %s %d %d %s %s\n", f.Channel, f.Replica, f.At, f.Reason, f.Kind)
	}
	return h.Sum64()
}

func FuzzSelectorInterleavings(f *testing.F) {
	for _, seed := range selectorSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { selectorSchedule(t, data) })
}

// selectorSchedule runs one selector schedule, checks its properties and
// returns the digest of its flight stream and faults.
func selectorSchedule(t testing.TB, data []byte) uint64 {
	sc := &fuzzScript{data: data}
	mode := sc.next() % 3 // 0 symmetric, 1 asymmetric, 2 outage+reintegrate
	caps := [2]int{2 + int(sc.next()%7), 2 + int(sc.next()%7)}
	// 0 disables divergence detection; 1 is degenerate (a writer
	// always momentarily leads its pair partner by one), and eq. 5
	// never yields it — the envelope bound makes D >= 2.
	d := int64(sc.next() % 7)
	if d == 1 {
		d = 2
	}
	stopAt := int64(5 + int(sc.next()%10))    // writer 1's last pre-outage seq
	resumeSeq := int64(1 + int(sc.next()%20)) // first seq of the refilled pipeline
	if resumeSeq > fuzzTokens-2 {
		resumeSeq = fuzzTokens - 2
	}
	outagePause := des.Time(1 + sc.next()%30)
	var d1, d2, dr [fuzzTokens]des.Time
	for i := range d1 {
		d1[i] = des.Time(sc.next() % 5)
		d2[i] = des.Time(sc.next() % 5)
		dr[i] = des.Time(sc.next() % 5)
	}
	if mode == 0 {
		// Identical replica timing: a false positive is a bug. The
		// delays must be positive — Delay(0) does not yield, so a
		// zero-delay writer bursts ahead of its pair partner and the
		// schedule would not actually be symmetric.
		for i := range d1 {
			if d1[i] == 0 {
				d1[i] = 1
			}
		}
		d2 = d1
		// Capacities must match too: with |S_1| != |S_2| the smaller
		// interface back-pressures earlier, and an independently
		// drawn D can be undersized for that gap — the analysis
		// derives D jointly with the capacities, never independently.
		caps[1] = caps[0]
	}

	k := des.NewKernel()
	var faults []Fault
	s := NewSelector(k, "S", caps, [2]int{0, 0}, d, nil, func(f Fault) {
		faults = append(faults, f)
	})
	digest := newStreamDigest()
	s.RecordFlight(digest.fr.Stream(0), 1)
	reintegrated := false
	k.Spawn("w1", 0, func(p *des.Proc) {
		w := s.WriterPort(1)
		for seq := int64(1); seq <= fuzzTokens; seq++ {
			if mode == 2 && !reintegrated && seq == stopAt+1 {
				// Outage: the replica dies mid-stream, is repaired
				// after a pause and resumes with a refilled pipeline
				// whose stream position may be behind (stale tokens,
				// dropped uncounted), aligned, or ahead (parks until
				// the healthy write front catches up).
				p.Delay(outagePause)
				if !s.Reintegrate(1) {
					return // reference replica unusable; nothing to resync against
				}
				reintegrated = true
				seq = resumeSeq
			}
			p.Delay(d1[seq-1])
			w.Write(p, kpn.Token{Seq: seq})
		}
	})
	k.Spawn("w2", 0, func(p *des.Proc) {
		w := s.WriterPort(2)
		for seq := int64(1); seq <= fuzzTokens; seq++ {
			p.Delay(d2[seq-1])
			w.Write(p, kpn.Token{Seq: seq})
		}
	})
	var got []int64
	k.Spawn("consumer", 1, func(p *des.Proc) {
		r := s.ReaderPort()
		for i := 0; i < fuzzTokens; i++ {
			p.Delay(dr[i])
			got = append(got, r.Read(p).Seq)
		}
	})
	k.Run(0)
	k.Shutdown()

	for i, seq := range got {
		if seq != int64(i)+1 {
			t.Fatalf("consumer token %d has seq %d, want %d (stream corrupted)\ngot: %v", i, seq, i+1, got)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("counter identities violated: %v", err)
	}
	if mode == 0 && len(faults) > 0 {
		t.Fatalf("symmetric schedule convicted a replica (false positive): %v", faults)
	}
	if reintegrated && !s.Resyncing(1) {
		// Alignment completed: the interface must be reinstated.
		if ok, at, reason := s.Faulty(1); ok && reason != ReasonConsumerStall && reason != ReasonDivergence {
			t.Fatalf("re-aligned interface still convicted: %v at %d", reason, at)
		}
	}
	return digest.sum(t, faults)
}

func FuzzReplicatorInterleavings(f *testing.F) {
	for _, seed := range replicatorSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { replicatorSchedule(t, data) })
}

// replicatorSchedule runs one replicator schedule, checks its properties
// and returns the digest of its flight stream and faults.
func replicatorSchedule(t testing.TB, data []byte) uint64 {
	sc := &fuzzScript{data: data}
	mode := sc.next() % 3 // 0 symmetric, 1 asymmetric, 2 outage+reintegrate
	caps := [2]int{2 + int(sc.next()%7), 2 + int(sc.next()%7)}
	// As in the selector target: a read-divergence threshold of 1 is
	// degenerate (momentary lead of one is inherent to pairing) and
	// outside what the analysis produces.
	dReads := int64(sc.next() % 7)
	if dReads == 1 {
		dReads = 2
	}
	stopAt := 3 + int(sc.next()%8) // reader 1 reads this many tokens, then dies
	outagePause := des.Time(1 + sc.next()%40)
	fill := int(sc.next() % 8)
	grace := int64(sc.next() % 8)
	pauseAfter := des.Time(sc.next() % 25) // repair-to-first-read lag (slide window)
	var dp, dr1, dr2 [fuzzTokens]des.Time
	for i := range dp {
		dp[i] = des.Time(1 + sc.next()%4)
		dr1[i] = des.Time(1 + sc.next()%4)
		dr2[i] = des.Time(1 + sc.next()%4)
	}
	if mode == 0 {
		// Identical timing, readers phase-shifted one tick behind the
		// producer: fill stays bounded, a conviction is a bug.
		dr1, dr2 = dp, dp
	}

	k := des.NewKernel()
	var faults []Fault
	r := NewReplicator(k, "R", caps, func(f Fault) {
		faults = append(faults, f)
	})
	digest := newStreamDigest()
	r.RecordFlight(digest.fr.Stream(0), 1)
	r.DReads = dReads
	var reintegratedAt des.Time = -1
	var firstReadAfter des.Time = -1
	r.SetReadHook(1, func(now des.Time) {
		if reintegratedAt >= 0 && firstReadAfter < 0 {
			firstReadAfter = now
		}
	})
	k.Spawn("producer", 0, func(p *des.Proc) {
		w := r.WriterPort()
		for seq := int64(1); seq <= fuzzTokens; seq++ {
			p.Delay(dp[seq-1])
			w.Write(p, kpn.Token{Seq: seq})
		}
	})
	var seqs [2][]int64
	reader := func(i int) func(p *des.Proc) {
		return func(p *des.Proc) {
			port := r.ReaderPort(i + 1)
			delays := dr2
			if i == 0 {
				delays = dr1
			}
			for n := 0; n < fuzzTokens; n++ {
				if i == 0 && mode == 2 && n == stopAt {
					// Outage: the replica stops consuming; the queue
					// fills and the producer convicts it. After the
					// pause the fault is repaired, the queue re-armed
					// from the healthy one, and the replica takes
					// pauseAfter more to issue its first read — the
					// window the slide grace must cover.
					p.Delay(outagePause)
					if !r.Reintegrate(1, fill, grace) {
						return
					}
					reintegratedAt = p.Now()
					p.Delay(pauseAfter)
				}
				p.Delay(delays[n%fuzzTokens])
				seqs[i] = append(seqs[i], port.Read(p).Seq)
			}
		}
	}
	k.Spawn("r1", 1, reader(0))
	k.Spawn("r2", 1, reader(1))
	k.Run(0)
	k.Shutdown()

	// Replica 1's stream is strictly increasing within each segment;
	// across the outage boundary the re-arm window may legitimately
	// reach back to tokens already consumed (the healthy reader was
	// lagging) — the selector's resynchronization is what discards
	// the duplicate outputs end-to-end.
	checkAscending := func(replica int, s []int64) {
		for j := 1; j < len(s); j++ {
			if s[j] <= s[j-1] {
				t.Fatalf("replica %d stream not strictly increasing at %d: %v", replica, j, s)
			}
		}
	}
	if mode == 2 && len(seqs[0]) > stopAt {
		checkAscending(1, seqs[0][:stopAt])
		checkAscending(1, seqs[0][stopAt:])
	} else {
		checkAscending(1, seqs[0])
	}
	checkAscending(2, seqs[1])
	// Replica 2 is never re-integrated, so its stream must be a
	// gapless prefix of the produced sequence.
	for j, seq := range seqs[1] {
		if seq != int64(j)+1 {
			t.Fatalf("replica 2 token %d has seq %d, want %d: %v", j, seq, j+1, seqs[1])
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("queue bookkeeping violated: %v", err)
	}
	if mode == 0 && len(faults) > 0 {
		t.Fatalf("symmetric schedule convicted a replica (false positive): %v", faults)
	}
	if reintegratedAt >= 0 {
		// Slide grace: between re-arm and the replica's first read,
		// overflow re-arms the queue instead of convicting.
		for _, f := range faults {
			if f.Replica == 1 && f.Reason == ReasonQueueFull && f.At > reintegratedAt &&
				(firstReadAfter < 0 || f.At < firstReadAfter) {
				t.Fatalf("queue-full conviction at %dus inside the re-arm window (reintegrated %dus, first read %dus)",
					f.At, reintegratedAt, firstReadAfter)
			}
		}
	}
	return digest.sum(t, faults)
}

// streamGolden holds the flight-stream digest of every channel fuzz seed
// (the built-in seeds and the checked-in corpus), recorded from the
// original per-runtime channel implementations. It pins re-integration
// edge cases the frozen reports reach only by chance: park-ahead, stale
// drops, the post-re-arm slide and an empty re-arm.
const streamGolden = "testdata/fuzz_streams.golden"

// TestFuzzSeedStreamsGolden replays every fuzz seed through the
// schedules the fuzz targets run and compares each digest with the
// golden file.
func TestFuzzSeedStreamsGolden(t *testing.T) {
	targets := []struct {
		name  string
		seeds [][]byte
		run   func(testing.TB, []byte) uint64
	}{
		{"FuzzSelectorInterleavings", selectorSeeds, selectorSchedule},
		{"FuzzReplicatorInterleavings", replicatorSeeds, replicatorSchedule},
	}
	var got []string
	for _, tg := range targets {
		for i, seed := range tg.seeds {
			got = append(got, fmt.Sprintf("%s seed#%d %016x", tg.name, i, tg.run(t, seed)))
		}
		dir := filepath.Join("testdata", "fuzz", tg.name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := readCorpusBytes(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s %s %016x", tg.name, e.Name(), tg.run(t, data)))
		}
	}
	raw, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("flight-stream digests differ from %s\ngot:\n%s\nwant:\n%s",
			streamGolden, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// readCorpusBytes decodes a one-value []byte fuzz corpus file.
func readCorpusBytes(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		return nil, fmt.Errorf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return []byte(s), nil
}

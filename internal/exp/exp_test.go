package exp

import (
	"fmt"
	"strings"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/rtc"
)

func TestAppByName(t *testing.T) {
	for _, n := range []string{"mjpeg", "adpcm", "h264"} {
		app, err := AppByName(n, false, 50)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if app.Tokens != 50 {
			t.Errorf("%s tokens = %d, want 50", n, app.Tokens)
		}
	}
	if _, err := AppByName("nope", false, 0); err == nil {
		t.Error("unknown app should fail")
	}
}

// TestComputeSizingShapes pins the analytic design of every paper app
// at both jitter tiers: each ComputeSizing field and the (m,k)
// stopped-replica bounds at m = 1, 2 and 7, as recorded before the
// rtc solvers were consolidated, plus the structural relations the
// paper's Table 2 shows.
func TestComputeSizingShapes(t *testing.T) {
	type mkPin struct{ sel, rep des.Time }
	for _, tc := range []struct {
		app           string
		minJitter     bool
		repCaps       [2]int
		selInits      [2]int
		selCaps       [2]int
		d, dRep       int64
		selBound      des.Time
		repBound      des.Time
		mk1, mk2, mk7 mkPin
	}{
		{"mjpeg", false, [2]int{2, 3}, [2]int{2, 3}, [2]int{4, 6}, 4, 4, 251000, 152000, mkPin{281000, 182000}, mkPin{311000, 212000}, mkPin{461000, 362000}},
		{"mjpeg", true, [2]int{2, 2}, [2]int{2, 2}, [2]int{4, 4}, 3, 3, 161500, 120200, mkPin{191500, 150200}, mkPin{221500, 180200}, mkPin{371500, 330200}},
		{"adpcm", false, [2]int{2, 2}, [2]int{3, 3}, [2]int{6, 6}, 5, 4, 65082, 25300, mkPin{71382, 31600}, mkPin{77682, 37900}, mkPin{109182, 69400}},
		{"adpcm", true, [2]int{2, 2}, [2]int{2, 2}, [2]int{4, 4}, 4, 4, 48532, 25250, mkPin{54832, 31550}, mkPin{61132, 37850}, mkPin{92632, 69350}},
		{"h264", false, [2]int{2, 3}, [2]int{2, 3}, [2]int{4, 6}, 4, 4, 244525, 151000, mkPin{274525, 181000}, mkPin{304525, 211000}, mkPin{454525, 361000}},
		{"h264", true, [2]int{2, 2}, [2]int{2, 2}, [2]int{4, 4}, 4, 3, 225425, 120100, mkPin{255425, 150100}, mkPin{285425, 180100}, mkPin{435425, 330100}},
		{"radar", false, [2]int{2, 2}, [2]int{2, 2}, [2]int{4, 4}, 4, 4, 790600, 405000, mkPin{890600, 505000}, mkPin{990600, 605000}, mkPin{1490600, 1105000}},
		{"radar", true, [2]int{2, 2}, [2]int{2, 2}, [2]int{4, 4}, 3, 3, 537600, 400500, mkPin{637600, 500500}, mkPin{737600, 600500}, mkPin{1237600, 1100500}},
	} {
		n := fmt.Sprintf("%s/minJitter=%v", tc.app, tc.minJitter)
		app, err := AppByName(tc.app, tc.minJitter, 100)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		s, err := ComputeSizing(app)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if s.RepCaps != tc.repCaps || s.SelInits != tc.selInits || s.SelCaps != tc.selCaps {
			t.Errorf("%s: caps %v inits %v selcaps %v, want %v %v %v",
				n, s.RepCaps, s.SelInits, s.SelCaps, tc.repCaps, tc.selInits, tc.selCaps)
		}
		if s.D != tc.d || s.DRep != tc.dRep {
			t.Errorf("%s: D=%d DRep=%d, want %d %d", n, s.D, s.DRep, tc.d, tc.dRep)
		}
		if s.SelBoundUs != tc.selBound || s.RepBoundUs != tc.repBound {
			t.Errorf("%s: bounds (%d,%d), want (%d,%d)", n, s.SelBoundUs, s.RepBoundUs, tc.selBound, tc.repBound)
		}
		for _, mk := range []struct {
			m    int
			want mkPin
		}{{1, tc.mk1}, {2, tc.mk2}, {7, tc.mk7}} {
			b, err := MKDetectionBounds(app, s, mk.m)
			if err != nil {
				t.Fatalf("%s m=%d: %v", n, mk.m, err)
			}
			if got := (mkPin{b.SelBoundUs, b.RepBoundUs}); got != mk.want {
				t.Errorf("%s: MKDetectionBounds(m=%d) = %v, want %v", n, mk.m, got, mk.want)
			}
		}
		// Replica 2 has more jitter than replica 1, so its queues and
		// credits must be at least as large (the paper's asymmetric
		// 2/3, 4/6, 2/3 pattern).
		if s.RepCaps[1] < s.RepCaps[0] {
			t.Errorf("%s: |R2|=%d < |R1|=%d", n, s.RepCaps[1], s.RepCaps[0])
		}
		if s.SelCaps[1] < s.SelCaps[0] || s.SelInits[1] < s.SelInits[0] {
			t.Errorf("%s: selector sizing not ordered: %v %v", n, s.SelCaps, s.SelInits)
		}
		// |S_k| = 2 |S_k|_0 as in Table 2.
		if s.SelCaps[0] != 2*s.SelInits[0] || s.SelCaps[1] != 2*s.SelInits[1] {
			t.Errorf("%s: caps %v != 2*inits %v", n, s.SelCaps, s.SelInits)
		}
		if s.D < 2 {
			t.Errorf("%s: D = %d, want >= 2", n, s.D)
		}
	}
}

// TestSizingForCaches pins the memoized sizing path: same result as
// ComputeSizing, computed once per distinct timing envelope.
func TestSizingForCaches(t *testing.T) {
	app := MJPEGApp(false, 120)
	want, err := ComputeSizing(app)
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := SizingCacheStats()
	got, err := SizingFor(app)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SizingFor = %+v, ComputeSizing = %+v", got, want)
	}
	// A fresh App value with identical envelopes must hit the cache.
	if got2, err := SizingFor(MJPEGApp(false, 120)); err != nil || got2 != want {
		t.Fatalf("cached SizingFor = %+v, %v", got2, err)
	}
	h1, m1 := SizingCacheStats()
	if h1 == h0 {
		t.Error("second SizingFor with identical envelopes did not hit the cache")
	}
	if m1 > m0+1 {
		t.Errorf("misses grew by %d, want at most 1", m1-m0)
	}
	// A different jitter tier is a different configuration.
	minJ, err := SizingFor(MJPEGApp(true, 120))
	if err != nil {
		t.Fatal(err)
	}
	wantMinJ, err := ComputeSizing(MJPEGApp(true, 120))
	if err != nil {
		t.Fatal(err)
	}
	if minJ != wantMinJ {
		t.Fatalf("min-jitter SizingFor = %+v, want %+v", minJ, wantMinJ)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 18 {
		t.Fatalf("Table 1 has %d rows, want 18", len(rows))
	}
	out := FormatTable1(rows)
	for _, want := range []string{"MJPEG Decoder", "ADPCM Application", "H.264 Encoder", "<30,2,30>", "<6.3,0.1,6.3>", "Bandwidth"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ADPCM(t *testing.T) {
	app := ADPCMApp(false, 160)
	res, err := Table2(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape 1: observed fill never exceeds the analytic capacity.
	if res.RepMaxFill[0] > res.Sizing.RepCaps[0] || res.RepMaxFill[1] > res.Sizing.RepCaps[1] {
		t.Errorf("replicator fill %v exceeds caps %v", res.RepMaxFill, res.Sizing.RepCaps)
	}
	if res.SelMaxFill > max(res.Sizing.SelCaps[0], res.Sizing.SelCaps[1]) {
		t.Errorf("selector fill %d exceeds cap %v", res.SelMaxFill, res.Sizing.SelCaps)
	}
	// Paper shape 2: every fault detected, within the analytic bound,
	// with no false positives.
	if res.Undetected != 0 || res.FalsePos != 0 {
		t.Fatalf("undetected=%d falsePos=%d", res.Undetected, res.FalsePos)
	}
	if res.SelLatency.Max() > res.Sizing.SelBoundUs {
		t.Errorf("selector latency max %d > bound %d", res.SelLatency.Max(), res.Sizing.SelBoundUs)
	}
	if res.RepLatency.Max() > res.Sizing.RepBoundUs {
		t.Errorf("replicator latency max %d > bound %d", res.RepLatency.Max(), res.Sizing.RepBoundUs)
	}
	// Paper shape 3: reference and duplicated timing equivalent (mean
	// inter-arrival within 5%).
	rm, dm := res.RefInter.Mean(), res.DupInter.Mean()
	if rm <= 0 || dm <= 0 {
		t.Fatalf("inter-arrival means %d %d", rm, dm)
	}
	diff := rm - dm
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(rm) {
		t.Errorf("duplicated inter-arrival mean %d deviates from reference %d", dm, rm)
	}
	// Rendering includes the headline rows.
	out := res.String()
	for _, want := range []string{"Theoretical capacity", "Fault detection latency", "upper bound", "Overhead", "inter-arrival"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

func TestTable2MJPEG(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	app := MJPEGApp(false, 120)
	res, err := Table2(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Undetected != 0 || res.FalsePos != 0 {
		t.Fatalf("undetected=%d falsePos=%d\n%s", res.Undetected, res.FalsePos, res.String())
	}
	if res.SelLatency.Max() > res.Sizing.SelBoundUs || res.RepLatency.Max() > res.Sizing.RepBoundUs {
		t.Errorf("latency exceeds bound:\n%s", res.String())
	}
}

func TestTable2H264(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	app := H264App(false, 120)
	res, err := Table2(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Undetected != 0 || res.FalsePos != 0 {
		t.Fatalf("undetected=%d falsePos=%d\n%s", res.Undetected, res.FalsePos, res.String())
	}
}

func TestTable2BadRuns(t *testing.T) {
	if _, err := Table2(ADPCMApp(false, 10), 0); err == nil {
		t.Error("zero runs should fail")
	}
}

func TestTable3ShapeOursBeatsPolling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Table3(4, 1000, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Undetected != 0 {
			t.Errorf("%s: %d undetected", r.App, r.Undetected)
		}
		if r.Ours.Count() == 0 || r.DF.Count() == 0 {
			t.Fatalf("%s: no samples", r.App)
		}
		// Paper shape: both methods detect within the same order of
		// magnitude, and ours (event-driven counters) does not trail the
		// polled distance function by more than one poll period on mean.
		if r.Ours.Mean() > r.DF.Mean()+int64(r.PollUs) {
			t.Errorf("%s: ours mean %d worse than DF mean %d + poll", r.App, r.Ours.Mean(), r.DF.Mean())
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Distance Function") {
		t.Error("Table 3 rendering incomplete")
	}
}

func TestTable3PollGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// §4.3: finer polling improves the baseline. Compare ADPCM rows at
	// 5 ms vs 0.2 ms poll.
	coarse, err := table3App("adpcm", 4, 5000, 140)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := table3App("adpcm", 4, 200, 140)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.DF.Mean() < fine.DF.Mean() {
		t.Errorf("coarse poll DF mean %d < fine poll %d; expected polling penalty", coarse.DF.Mean(), fine.DF.Mean())
	}
	// Our latency must be unaffected by the baseline's poll period.
	d := coarse.Ours.Mean() - fine.Ours.Mean()
	if d < 0 {
		d = -d
	}
	if d > int64(coarse.Ours.Mean()/4+1000) {
		t.Errorf("our latency should not depend on poll period: %d vs %d", coarse.Ours.Mean(), fine.Ours.Mean())
	}
}

// TestBoundForCount pins the count inversion behind the replicator
// queue-fill bound: the time for the producer's lower curve to deliver
// a token count.
func TestBoundForCount(t *testing.T) {
	app := ADPCMApp(false, 10)
	b, err := rtc.TimeToReach(app.Producer.Lower(), 3, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// floor((Δ-100)/6300) >= 3 at Δ = 3*6300+100.
	if b != 3*6300+100 {
		t.Errorf("bound = %d, want %d", b, 3*6300+100)
	}
	if _, err := rtc.TimeToReach(rtc.Zero, 1, 100); err == nil {
		t.Error("unreachable count should fail")
	}
}

func TestFillProfile(t *testing.T) {
	app := ADPCMApp(false, 120)
	samples, sizing, err := FillProfile(app, 1, app.PeriodUs)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	injectAt := des.Time(app.Tokens/2) * app.PeriodUs
	var sawFull bool
	for _, s := range samples {
		if s.RepFill[0] > sizing.RepCaps[0] || s.RepFill[1] > sizing.RepCaps[1] {
			t.Fatalf("fill exceeds capacity at t=%d: %v vs %v", s.At, s.RepFill, sizing.RepCaps)
		}
		if s.At > injectAt && s.RepFill[0] == sizing.RepCaps[0] {
			sawFull = true
		}
		if s.At < injectAt && s.SelSpace[0] > int64(sizing.SelCaps[0]) {
			t.Fatalf("pre-fault space runaway at t=%d", s.At)
		}
	}
	if !sawFull {
		t.Error("faulty replica's queue never reached capacity after the fault")
	}
	out := FormatFillProfile(samples, sizing, app, 1)
	if !strings.Contains(out, "fault injected") {
		t.Errorf("profile rendering missing fault marker:\n%s", out)
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf strings.Builder
	err := WriteReport(&buf, ReportConfig{Runs: 2, Tokens: 80, PollUs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2 — MJPEG Decoder", "Table 2 — ADPCM Application",
		"Table 2 — H.264 Encoder", "Table 3", "fault injected"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if err := WriteReport(&buf, ReportConfig{Runs: 0}); err == nil {
		t.Error("zero runs should fail")
	}
}

func TestTable2Radar(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	app := RadarApp(false, 100)
	res, err := Table2(app, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Undetected != 0 || res.FalsePos != 0 {
		t.Fatalf("radar: undetected=%d falsePos=%d\n%s", res.Undetected, res.FalsePos, res.String())
	}
	if res.SelLatency.Max() > res.Sizing.SelBoundUs || res.RepLatency.Max() > res.Sizing.RepBoundUs {
		t.Errorf("radar latency exceeds bound:\n%s", res.String())
	}
}

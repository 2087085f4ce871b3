package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ftpn/internal/ft"
)

// frozenReport is one committed report and the call that regenerated
// it, at the size and seed recorded in the file.
type frozenReport struct {
	file   string
	golden func() any // a zero value of today's report type
	fresh  func(opts ...Option) (any, error)
}

var frozenReports = []frozenReport{
	{
		file:   "BENCH_PR2.json",
		golden: func() any { return new(CampaignResult) },
		fresh: func(opts ...Option) (any, error) {
			return Campaign(CampaignConfig{Runs: 1000, Seed: 1}, opts...)
		},
	},
	{
		file:   "BENCH_PR7.json",
		golden: func() any { return new(DetectReport) },
		fresh:  func(opts ...Option) (any, error) { return DetectBench(25, 1, opts...) },
	},
	{
		file:   "BENCH_PR8.json",
		golden: func() any { return new(TopoReport) },
		fresh:  func(opts ...Option) (any, error) { return TopoBench(1000, 1, opts...) },
	},
	{
		file:   "BENCH_PR9.json",
		golden: func() any { return new(LatBenchReport) },
		fresh:  func(opts ...Option) (any, error) { return LatBench(500, 1, opts...) },
	},
}

// frozenParallelism are the worker counts every oracle is regenerated
// at: aggregation is in run order, so both must match the file.
var frozenParallelism = []int{1, 4}

// canonicalGolden reads a committed report into today's report type
// and re-marshals it, so formatting cannot mask or fake a difference.
// Keys the type no longer has (a removed report row) are dropped; a
// row the file lacks comes back as its zero value and so still fails
// the comparison against a fresh non-zero row.
func canonicalGolden(t *testing.T, r frozenReport) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", r.file))
	if err != nil {
		t.Fatal(err)
	}
	v := r.golden()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", r.file, err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", r.file, err)
	}
	return canon
}

// firstDiff renders the neighbourhood of the first differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	window := func(b []byte) string {
		lo, hi := max(i-80, 0), min(i+80, len(b))
		return string(b[lo:hi])
	}
	return fmt.Sprintf("first difference at byte %d\n  got:  …%s…\n  want: …%s…", i, window(got), window(want))
}

// mkCampaigns are campaigns under (m,k) policies. With budget m a
// stopped replica is convicted only at its (m+1)-th violating sample,
// so invariant 3 holds stop-mode latencies to the bound derived for m;
// against the binary (m = 0) bound these runs used to violate it.
var mkCampaigns = []CampaignConfig{
	{Runs: 32, Seed: 1, Policy: ft.PolicySpec{Kind: ft.PolicyMK, M: 2, K: 16, Value: true}},
	{Runs: 300, Seed: 3, Policy: ft.PolicySpec{Kind: ft.PolicyMK, M: 2, K: 16}},
}

// TestFrozenReports regenerates every frozen report at its recorded
// size and seed, at each parallelism level, and requires it to equal
// the committed file; it also requires the (m,k) campaigns to run
// without a violation. This is the gate every refactor of the
// simulator, the detectors or the sizing is judged by. The subtests
// share no state, so they run side by side (go test -parallel).
func TestFrozenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the frozen reports at full size")
	}
	for _, r := range frozenReports {
		want := canonicalGolden(t, r)
		for _, par := range frozenParallelism {
			t.Run(fmt.Sprintf("%s/parallel=%d", r.file, par), func(t *testing.T) {
				t.Parallel()
				rep, err := r.fresh(WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("report diverges from %s: %s", r.file, firstDiff(got, want))
				}
			})
		}
	}
	for _, cfg := range mkCampaigns {
		for _, par := range frozenParallelism {
			t.Run(fmt.Sprintf("campaign %s n=%d seed=%d/parallel=%d", cfg.Policy, cfg.Runs, cfg.Seed, par), func(t *testing.T) {
				t.Parallel()
				res, err := Campaign(cfg, WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				if res.Violations != 0 {
					t.Fatalf("%d violating runs:\n%s", res.Violations, res.String())
				}
			})
		}
	}
}

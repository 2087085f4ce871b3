package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

// boundDef is one end-to-end metric's direction and regression bound:
// the share of the parent's median by which it may worsen.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runCompare diffs two sets of untraced reports, "base... -- change...",
// row by row per (workload, end-to-end metric). Pair i is the i-th base
// run against the i-th change run of the workload, in the order given;
// alternate which side runs first when producing them.
func runCompare(args []string, boundsPath string, w io.Writer) error {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		return fmt.Errorf("-compare wants base report files, then --, then change report files")
	}
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	base, err := loadReports(args[:sep])
	if err != nil {
		return err
	}
	change, err := loadReports(args[sep+1:])
	if err != nil {
		return err
	}
	var names []string
	for name := range base {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced reports on both sides")
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-11s %-13s %26s %26s %8s %7s  %s\n", "workload", "metric", "base median [q1,q3]", "change median [q1,q3]", "delta", "wins", "verdict")
	for _, name := range names {
		for _, d := range bf.EndToEnd {
			b, c := values(base[name], d.Name), values(change[name], d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, wins, pairs := verdict(b, c, d)
			bq, cq := quartiles(b), quartiles(c)
			fmt.Fprintf(w, "%-11s %-13s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g] %+7.2f%% %3d/%-3d  %s\n",
				name, d.Name, median(b), bq[0], bq[2], median(c), cq[0], cq[2],
				100*(median(c)-median(b))/median(b), wins, pairs, v)
		}
	}
	return nil
}

// loadReports reads every untraced report line from the files, grouped
// by workload in file order.
func loadReports(paths []string) (map[string][]report, error) {
	out := map[string][]report{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if !strings.Contains(string(line), `"workload"`) {
				continue
			}
			var r report
			if err := json.Unmarshal(line, &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

func values(reps []report, name string) []float64 {
	var v []float64
	for _, r := range reps {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict classifies change against base for one metric:
//
//   - improved: at least ten pairs, the change wins at least nine in ten
//     (ties count for neither side), and the medians differ in its favour
//     by more than the base runs' interquartile range;
//   - unresolved: the base runs spread wider than the bound, unless every
//     change run beats every base run;
//   - worse: the change median is worse than the base median by more than
//     the bound;
//   - unchanged: otherwise.
func verdict(base, change []float64, d boundDef) (v string, wins, pairs int) {
	higher := d.Better == "higher"
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	pairs = min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	mb, mc := median(base), median(change)
	q := quartiles(base)
	iqr := q[2] - q[0]
	if pairs >= 10 && 10*wins >= 9*pairs && better(mc, mb) && math.Abs(mc-mb) > iqr {
		return "improved", wins, pairs
	}
	if iqr > d.Bound*math.Abs(mb) {
		if allBetter(change, base, better) {
			return "unchanged", wins, pairs
		}
		return "unresolved", wins, pairs
	}
	if better(mb, mc) && math.Abs(mc-mb) > d.Bound*math.Abs(mb) {
		return "worse", wins, pairs
	}
	return "unchanged", wins, pairs
}

func allBetter(change, base []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	switch n := len(s); {
	case n == 0:
	case n == 1:
		q = [3]float64{s[0], s[0], s[0]}
	default:
		m := n + 1
		for i := 1; i <= 3; i++ {
			j := min(max(i*m/4, 1), n-1)
			delta := i*m - j*4
			q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return q
}

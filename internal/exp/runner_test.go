package exp

import (
	"errors"
	"testing"
)

// TestParallelDeterminism is the regression for the parallel runner: the
// rendered Table 2 block must be String()-identical between a sequential
// and a heavily parallel execution. Host-time op costs are the one
// legitimately nondeterministic field, so both sides zero them.
func TestParallelDeterminism(t *testing.T) {
	names := []string{"adpcm"}
	if !testing.Short() {
		names = append(names, "mjpeg")
	}
	for _, name := range names {
		tokens := int64(120)
		app, err := AppByName(name, false, tokens)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Table2(app, 6, WithParallelism(1))
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		par, err := Table2(app, 6, WithParallelism(8))
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		seq.SelOpNs, seq.RepOpNs = 0, 0
		par.SelOpNs, par.RepOpNs = 0, 0
		if s, p := seq.String(), par.String(); s != p {
			t.Errorf("%s: parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", name, s, p)
		}
	}
}

// TestTable3ParallelDeterminism covers the second parallelized
// experiment the same way.
func TestTable3ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seq, err := Table3ADPCMOnly(6, 1000, 140, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table3ADPCMOnly(6, 1000, 140, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if s, p := FormatTable3([]Table3Row{seq}), FormatTable3([]Table3Row{par}); s != p {
		t.Errorf("Table 3 parallel output differs:\n%s\nvs\n%s", s, p)
	}
}

func TestRunIndexed(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		got, err := runIndexed(workers, 10, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestRunIndexedLowestError(t *testing.T) {
	boom3 := errors.New("run 3 failed")
	boom7 := errors.New("run 7 failed")
	for _, workers := range []int{1, 4} {
		_, err := runIndexed(workers, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, boom3
			case 7:
				return 0, boom7
			}
			return i, nil
		})
		if !errors.Is(err, boom3) {
			t.Fatalf("workers=%d: got %v, want lowest-index error %v", workers, err, boom3)
		}
	}
}

func TestRunIndexedEmpty(t *testing.T) {
	got, err := runIndexed(4, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run set: %v %v", got, err)
	}
}

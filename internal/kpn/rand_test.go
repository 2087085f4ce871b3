package kpn

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// freshDraws returns n draws from a freshly seeded math/rand source,
// mixing the Rand methods the stage models use.
func freshDraws(seed int64, n int) []int64 {
	return draws(rand.New(rand.NewSource(seed)), n)
}

// draws returns n draws from r: Int63, Int63n, Intn and Uint64 in turn.
func draws(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = r.Int63()
		case 1:
			out[i] = r.Int63n(30_001)
		case 2:
			out[i] = int64(r.Intn(1 << 20))
		default:
			out[i] = int64(r.Uint64())
		}
	}
	return out
}

// checkDraws fails unless r's first n draws equal a fresh source's.
func checkDraws(t *testing.T, what string, seed int64, r *rand.Rand, n int) {
	t.Helper()
	want := freshDraws(seed, n)
	got := draws(r, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: draw %d = %d, fresh source drew %d", what, seed, i, got[i], want[i])
		}
	}
}

// TestNewRandLazyEnabled fails loudly when lazy sources failed their
// start-up check against math/rand: NewRand would then seed every
// source afresh, and the per-run saving would silently vanish.
func TestNewRandLazyEnabled(t *testing.T) {
	if !lazyRand {
		t.Fatal("lazy sources disagree with math/rand's source; NewRand seeds math/rand sources instead")
	}
	if !lazyMatchesMathRand() {
		t.Fatal("lazy sources disagree with math/rand's source")
	}
}

// TestNewRandMatchesFresh: lazy sources draw exactly what
// rand.New(rand.NewSource(seed)) draws across the materialization (draw
// 274) and the register's wrap (draw 608), for random, negative, zero,
// extreme and reduction-edge seeds, and after a Seed call.
func TestNewRandMatchesFresh(t *testing.T) {
	seeds := []int64{0, 1, -1, 11, 102, pmMod, -pmMod, 2 * pmMod, 7 * pmMod, 1 << 31,
		math.MaxInt64, math.MinInt64, math.MaxInt32, -math.MaxInt32, zeroSeed}
	pick := rand.New(rand.NewSource(99))
	for i := 0; i < 24; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	for _, s := range seeds {
		checkDraws(t, "first call", s, NewRand(s), 2000)
		checkDraws(t, "second call", s, NewRand(s), 2000)
		r := NewRand(s + 1)
		draws(r, 300)
		r.Seed(s)
		checkDraws(t, "reseeded", s, r, 1000)
	}
}

// TestNewRandSourcesAreIndependent: two sources of one seed share no
// state, lazy or materialized.
func TestNewRandSourcesAreIndependent(t *testing.T) {
	const seed = 77
	r1, r2 := NewRand(seed), NewRand(seed)
	draws(r1, 5000)
	checkDraws(t, "second source after the first drew", seed, r2, 1000)
	checkDraws(t, "third source", seed, NewRand(seed), 1000)
}

// TestNewRandConcurrent: callers on many goroutines sharing seeds all
// draw the fresh sequence (run under -race).
func TestNewRandConcurrent(t *testing.T) {
	seeds := []int64{3, 67, 4, -9, 1 << 40}
	want := map[int64][]int64{}
	for _, s := range seeds {
		want[s] = freshDraws(s, 1000)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s := seeds[(g+i)%len(seeds)]
				got := draws(NewRand(s), 1000)
				for j := range got {
					if got[j] != want[s][j] {
						errs <- "seed draw mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestNewRandAllocs pins the cost of a source that stays lazy: the Rand
// and the source, two allocations under 128 bytes, whatever it draws up
// to draw 273.
func TestNewRandAllocs(t *testing.T) {
	var sink int64
	run := func() {
		r := NewRand(21)
		for i := 0; i < rngTap; i++ {
			sink += r.Int63()
		}
	}
	if allocs := testing.AllocsPerRun(100, run); allocs > 2 {
		t.Fatalf("NewRand + %d draws allocates %.1f times, want at most 2", rngTap, allocs)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 128 {
		t.Fatalf("NewRand + %d draws allocates %d B, want under 128", rngTap, per)
	}
	_ = sink
}

// FuzzNewRand compares a lazy source with math/rand's for any seed and
// up to 2,000 draws, through each Rand method the stage models use.
func FuzzNewRand(f *testing.F) {
	for _, s := range []int64{0, -1, 1 << 31, pmMod, 3 * pmMod, math.MinInt64} {
		for _, n := range []uint16{0, rngTap, rngTap + 1, rngLen, rngLen + 1, 2000} {
			f.Add(s, n, uint8(0))
		}
	}
	f.Add(int64(42), uint16(300), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, method uint8) {
		n %= 2001
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for k := 0; k < int(n); k++ {
			var g, w int64
			switch (int(method) + k) % 4 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Int63n(1_000_003), want.Int63n(1_000_003)
			case 2:
				g, w = int64(got.Intn(97)), int64(want.Intn(97))
			default:
				g, w = int64(got.Uint64()), int64(want.Uint64())
			}
			if g != w {
				t.Fatalf("seed %d draw %d: lazy source drew %d, math/rand %d", seed, k, g, w)
			}
		}
	})
}

// BenchmarkNewRand prices a source plus n draws: a repeated seed, a
// fresh seed per source, and math/rand seeding for reference.
func BenchmarkNewRand(b *testing.B) {
	for _, n := range []int{100, 220, 1000} {
		b.Run("repeated/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRand(21)
				for k := 0; k < n; k++ {
					randSink += r.Int63()
				}
			}
		})
		b.Run("fresh/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRand(int64(i) * 0x5851F42D4C957F2D)
				for k := 0; k < n; k++ {
					randSink += r.Int63()
				}
			}
		})
		b.Run("mathrand/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < n; k++ {
					randSink += r.Int63()
				}
			}
		})
	}
}

// randSink keeps benchmarked draws live.
var randSink int64

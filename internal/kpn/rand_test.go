package kpn

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// freshDraws returns n draws from a freshly seeded math/rand source,
// mixing the Rand methods the stage models use.
func freshDraws(seed int64, n int) []int64 {
	return draws(rand.New(rand.NewSource(seed)), n)
}

// draws returns n draws from r: Int63, Int63n and Uint64 in turn.
func draws(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = r.Int63()
		case 1:
			out[i] = r.Int63n(30_001)
		default:
			out[i] = int64(r.Uint64())
		}
	}
	return out
}

// checkDraws fails unless r's first 1,000 draws equal a fresh source's.
func checkDraws(t *testing.T, what string, seed int64, r *rand.Rand) {
	t.Helper()
	want := freshDraws(seed, 1000)
	got := draws(r, 1000)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d: draw %d = %d, fresh source drew %d", what, seed, i, got[i], want[i])
		}
	}
}

// TestNewRandTemplatesEnabled fails loudly when math/rand's source stops
// being a pointer to plain integer state: NewRand would then seed every
// source afresh, and the warm-run saving would silently vanish.
func TestNewRandTemplatesEnabled(t *testing.T) {
	if randSourceType == nil {
		t.Fatalf("math/rand.NewSource returns %T, which NewRand cannot copy by value; seed templates are off", rand.NewSource(1))
	}
	if got := reflect.TypeOf(rand.NewSource(1)); got != reflect.PointerTo(randSourceType) {
		t.Fatalf("NewSource type %v, templates copy %v", got, randSourceType)
	}
	NewRand(424_242)
	if tmpl := randSlot(424_242).Load(); tmpl == nil || tmpl.seed != 424_242 {
		t.Fatal("NewRand did not install a template for its seed")
	}
}

// TestNewRandMatchesFresh: the first (seeding) and later (copying) calls
// for a seed draw exactly what rand.New(rand.NewSource(seed)) draws, for
// random, negative, zero and extreme seeds, and for seeds that share a
// slot and evict each other.
func TestNewRandMatchesFresh(t *testing.T) {
	seeds := []int64{0, 1, -1, 11, 102, math.MaxInt64, math.MinInt64, math.MaxInt32, -math.MaxInt32}
	pick := rand.New(rand.NewSource(99))
	for i := 0; i < 24; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}
	for _, s := range seeds {
		checkDraws(t, "first call", s, NewRand(s))
		checkDraws(t, "second call", s, NewRand(s))
	}

	// Slot-colliding seeds: a and b share a slot, so each call for one
	// replaces the other's template.
	a := int64(5)
	for _, b := range []int64{a + randSlots, a + 7*randSlots, a ^ 1<<32 ^ 1<<48} {
		if randSlot(a) != randSlot(b) {
			t.Fatalf("seeds %d and %d were meant to share a slot", a, b)
		}
		for i := 0; i < 3; i++ {
			checkDraws(t, "colliding", a, NewRand(a))
			checkDraws(t, "colliding", b, NewRand(b))
		}
	}
}

// TestNewRandCopiesAreIndependent: sources copied from one template do
// not share state — drawing from one leaves the other at the seed's
// start.
func TestNewRandCopiesAreIndependent(t *testing.T) {
	const seed = 77
	NewRand(seed)
	r1, r2 := NewRand(seed), NewRand(seed)
	draws(r1, 5000)
	checkDraws(t, "second copy after the first drew", seed, r2)
	checkDraws(t, "template after copies drew", seed, NewRand(seed))
}

// TestNewRandConcurrent: callers on many goroutines, sharing seeds and
// evicting each other's templates, all draw the fresh sequence (run
// under -race).
func TestNewRandConcurrent(t *testing.T) {
	seeds := []int64{3, 3 + randSlots, 4, -9, 1 << 40}
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

// BenchmarkNewRand compares a template hit with seeding afresh.
func BenchmarkNewRand(b *testing.B) {
	var sink *rand.Rand
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = rand.New(rand.NewSource(21))
		}
	})
	b.Run("template", func(b *testing.B) {
		b.ReportAllocs()
		NewRand(21)
		for i := 0; i < b.N; i++ {
			sink = NewRand(21)
		}
	})
	_ = sink
}

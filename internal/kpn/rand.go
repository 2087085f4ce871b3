package kpn

import "math/rand"

// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word register. Seeding fills word i from three consecutive
// Park–Miller outputs x_n = 48271^n·x0 mod (2^31−1), starting at step
// 21+3i (the first 20 steps are discarded), XORed with a constant
// rngCooked[i]. Draw k (from 1) then writes
//
//	vec[334−k] += vec[607−k]    (indices mod 607)
//
// and returns the sum. Draw j writes index 334−j, so the tap index
// 607−k is written first by draw j = k−273, and the feed index 334−k by
// draw k itself: for k ≤ 273 both operands are still seeded words, and
// the draw is their sum. A lazy source computes those draws directly
// from a table of powers of 48271 and materializes the register only on
// draw 274.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // 334: the feed index before the first draw
	rngMask  = 1<<63 - 1
	pmMod    = 1<<31 - 1
	pmMul    = 48271
	pmSkip   = 20       // Park–Miller steps seeding discards before word 0
	zeroSeed = 89482311 // what math/rand seeds with when seed ≡ 0 mod 2^31−1
)

// seedWord holds what seeded word i needs besides x0: the powers
// 48271^n mod (2^31−1) of its three Park–Miller steps, and math/rand's
// unexported constant rngCooked[i], recovered by recoverCooked.
type seedWord struct {
	pow    [3]uint64
	cooked int64
}

var (
	seedWords [rngLen]seedWord
	// lazyRand reports whether lazy sources passed the self-check
	// against math/rand; NewRand seeds math/rand sources when it is
	// false.
	lazyRand bool
)

func init() {
	pow := uint64(1)
	for n := 0; n < pmSkip; n++ {
		pow = pmMulMod(pow, pmMul)
	}
	for i := range seedWords {
		for j := range seedWords[i].pow {
			pow = pmMulMod(pow, pmMul)
			seedWords[i].pow[j] = pow
		}
	}
	lazyRand = recoverCooked() && lazyMatchesMathRand()
}

// pmMulMod returns a·b mod 2^31−1 for a, b < 2^31.
func pmMulMod(a, b uint64) uint64 {
	v := a * b
	r := v&pmMod + v>>31
	if r >= pmMod {
		r -= pmMod
	}
	return r
}

// pmSeed reduces a seed to math/rand's Park–Miller start x0.
func pmSeed(seed int64) uint64 {
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// seeded returns word w of the register seeded from x0, with cooked its
// constant.
func seeded(x0 uint64, w *seedWord, cooked int64) int64 {
	return int64(pmMulMod(x0, w.pow[0]))<<40 ^
		int64(pmMulMod(x0, w.pow[1]))<<20 ^
		int64(pmMulMod(x0, w.pow[2])) ^ cooked
}

// recoverCooked fills rngCooked by inverting the first 607 draws of a
// math/rand source seeded with 1. With out[k] the k-th draw and v the
// seeded register:
//
//	k ≤ 273:       out[k] = v[334−k] + v[607−k]
//	274 ≤ k ≤ 334: out[k] = v[334−k] + out[k−273]
//	335 ≤ k ≤ 607: out[k] = v[941−k] + out[k−273]
//
// It reports false if math/rand's source is not a Source64.
func recoverCooked() bool {
	src, ok := rand.NewSource(1).(rand.Source64)
	if !ok {
		return false
	}
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := 335; k <= rngLen; k++ {
		v[941-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngFeed-k] = out[k] - v[rngLen-k]
	}
	for k := rngTap + 1; k <= rngFeed; k++ {
		v[rngFeed-k] = out[k] - out[k-rngTap]
	}
	x0 := pmSeed(1)
	for i := range v {
		seedWords[i].cooked = v[i] ^ seeded(x0, &seedWords[i], 0)
	}
	return true
}

// lazyMatchesMathRand reports whether lazy sources draw what math/rand
// sources draw, past the materialization and the register's first wrap,
// for seeds on either side of the Park–Miller reduction.
func lazyMatchesMathRand() bool {
	for _, seed := range []int64{0, -1, 1<<31 + 5} {
		want := rand.NewSource(seed).(rand.Source64)
		got := newLazySource(seed)
		for k := 0; k < 2*rngLen; k++ {
			if got.Uint64() != want.Uint64() {
				return false
			}
		}
	}
	return true
}

// lazySource is a rand.Source64 that draws exactly what
// rand.NewSource(seed) draws, without filling the 607-word register
// until draw 274.
type lazySource struct {
	x0  uint64    // Park–Miller start
	n   int       // lazy draws made: all draws up to 273, then 273
	reg *register // nil while lazy
}

func newLazySource(seed int64) *lazySource {
	return &lazySource{x0: pmSeed(seed)}
}

// word returns seeded word i of the register.
func (s *lazySource) word(i int) int64 {
	w := &seedWords[i]
	return seeded(s.x0, w, w.cooked)
}

// Seed restarts the source at seed, as math/rand's Seed does.
func (s *lazySource) Seed(seed int64) {
	*s = lazySource{x0: pmSeed(seed)}
}

func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

func (s *lazySource) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		return uint64(s.word(rngFeed-s.n) + s.word(rngLen-s.n))
	}
	if s.reg == nil {
		s.materialize()
	}
	return s.reg.next()
}

// materialize builds the register the s.n lazy draws left behind.
func (s *lazySource) materialize() {
	r := &register{tap: rngLen - s.n, feed: rngFeed - s.n}
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for k := 1; k <= s.n; k++ {
		r.vec[rngFeed-k] += r.vec[rngLen-k]
	}
	s.reg = r
}

// register is math/rand's generator state once materialized.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// next is math/rand's rngSource.Uint64.
func (r *register) next() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// NewRand returns a *rand.Rand that draws exactly what
// rand.New(rand.NewSource(seed)) draws. Its source is seeded lazily: the
// first 273 draws cost a few multiplications each and allocate nothing,
// and only a source that draws more fills math/rand's 607-word register.
// If lazy sources failed their start-up check against math/rand, NewRand
// seeds a math/rand source instead. NewRand is safe for concurrent use;
// like any math/rand source, the one it returns is not.
func NewRand(seed int64) *rand.Rand {
	if !lazyRand {
		return rand.New(rand.NewSource(seed))
	}
	return rand.New(newLazySource(seed))
}

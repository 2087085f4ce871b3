package mjpeg

import (
	"math"
	"math/rand"
	"testing"
)

// refIDCT is the reference semantics of idct: one output at a time,
// each the sum over v ascending of dctScale[v]·coef·cosTable[v][y]. The
// fast idct must reproduce it bit for bit, so every decoded pixel, and
// with it every MJPEG payload digest, is the same.
func refIDCT(block *[64]float64) {
	var tmp [64]float64
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += dctScale[v] * block[v*8+u] * cosTable[v][y]
			}
			tmp[y*8+u] = s
		}
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += dctScale[u] * tmp[y*8+u] * cosTable[u][x]
			}
			block[y*8+x] = s
		}
	}
}

// valueBits is v's bit pattern with every NaN mapped to one pattern:
// which NaN an operation on two NaNs yields depends on how the compiler
// orders the operands of a commutative instruction, not on the source.
func valueBits(v float64) uint64 {
	if math.IsNaN(v) {
		return 0x7ff8000000000001
	}
	return math.Float64bits(v)
}

func checkIDCT(t *testing.T, in *[64]float64) {
	t.Helper()
	got, want := *in, *in
	idct(&got)
	refIDCT(&want)
	for i := range got {
		if valueBits(got[i]) != valueBits(want[i]) {
			t.Fatalf("idct output %d = %x, reference %x (input %v)",
				i, math.Float64bits(got[i]), math.Float64bits(want[i]), *in)
		}
	}
}

var idctSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -0x1p-1060, math.MaxFloat64, -math.MaxFloat64,
}

func TestIDCTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		var block [64]float64
		for i := range block {
			switch trial % 4 {
			case 0: // dequantized levels as the decoder forms them: sparse integers
				if rng.Intn(3) == 0 {
					block[i] = float64((rng.Intn(255) - 127) * (1 + rng.Intn(60)))
				}
			case 1: // wide-range values
				block[i] = (2*rng.Float64() - 1) * math.Ldexp(1, rng.Intn(80)-40)
			case 2: // a special value now and then
				if rng.Intn(6) == 0 {
					block[i] = idctSpecials[rng.Intn(len(idctSpecials))]
				} else {
					block[i] = float64(rng.Intn(2001) - 1000)
				}
			case 3: // only signed zeros and a few subnormals
				block[i] = idctSpecials[rng.Intn(2)]
				if rng.Intn(10) == 0 {
					block[i] = idctSpecials[5+rng.Intn(2)]
				}
			}
		}
		checkIDCT(t, &block)
	}
}

// FuzzIDCT feeds 64 float64s of arbitrary bit patterns (missing bytes
// read as zero) to idct and its reference.
func FuzzIDCT(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 512))
	seed := make([]byte, 512)
	for i, v := range idctSpecials {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			seed[8*(7*i%64)+b] = byte(bits >> (8 * b))
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw [512]byte
		copy(raw[:], data)
		var block [64]float64
		for i := range block {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits |= uint64(raw[8*i+b]) << (8 * b)
			}
			block[i] = math.Float64frombits(bits)
		}
		checkIDCT(t, &block)
	})
}

// benchSink keeps the benchmarked calls' results alive.
var benchSink float64

// BenchmarkIDCT times one inverse transform of a block of dequantized
// levels at the MJPEG app's quality, 70.
func BenchmarkIDCT(b *testing.B) {
	frame := TestFrame(64, 48, 1)
	var block [64]float64
	for i := range block {
		block[i] = float64(frame.Pix[i/8*frame.W+i%8]) - 128
	}
	fdct(&block)
	q := quantTable(70)
	for i := range block {
		block[i] = math.Round(block[i]/float64(q[i])) * float64(q[i])
	}
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blk := block
			refIDCT(&blk)
			benchSink += blk[i%64]
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blk := block
			idct(&blk)
			benchSink += blk[i%64]
		}
	})
}

package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The scalar kernels below are the reference semantics of FIR,
// Envelope, CACFAR and the payload packing: one output at a time, every
// window bound tested per sample. The exported kernels must reproduce
// them bit for bit, so every radar payload, memo digest and golden
// stream is the same whichever version computed it.

func refFIR(x, h []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		var acc float64
		for j, c := range h {
			if k := i - j; k >= 0 {
				acc += c * x[k]
			}
		}
		out[i] = acc
	}
	return out
}

func refEnvelope(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(x))
	for i := range x {
		m := 0.0
		for j := i - window + 1; j <= i; j++ {
			if j >= 0 {
				if v := math.Abs(x[j]); v > m {
					m = v
				}
			}
		}
		out[i] = m
	}
	return out
}

func refCACFAR(x []float64, guard, train int, factor float64) []Detection {
	var dets []Detection
	for i := range x {
		var sum float64
		var n int
		for side := -1; side <= 1; side += 2 {
			for j := 1; j <= train; j++ {
				k := i + side*(guard+j)
				if k >= 0 && k < len(x) {
					sum += x[k]
					n++
				}
			}
		}
		if n < train {
			continue
		}
		noise := sum / float64(n)
		if noise <= 0 {
			noise = 1e-12
		}
		if x[i] > factor*noise {
			dets = append(dets, Detection{Cell: i, Value: x[i], Noise: noise})
		}
	}
	return dets
}

func refPackF64(x []float64) []byte {
	out := make([]byte, 8*len(x))
	for i, v := range x {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(bits >> (8 * b))
		}
	}
	return out
}

func refUnpackF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		var bits uint64
		for j := 0; j < 8; j++ {
			bits |= uint64(b[8*i+j]) << (8 * j)
		}
		out[i] = math.Float64frombits(bits)
	}
	return out
}

// specials are the samples whose arithmetic most easily betrays a
// reordered sum: signed zeros, NaN, infinities and subnormals.
var specials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// samples draws n values: mostly uniform in [-1, 1] over a wide range
// of magnitudes, with a special value in about one draw of `special`
// (none when special is 0).
func samples(rng *rand.Rand, n, special int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if special > 0 && rng.Intn(special) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
			continue
		}
		x[i] = (2*rng.Float64() - 1) * math.Ldexp(1, rng.Intn(40)-20)
	}
	return x
}

// valueBits is v's bit pattern, with every NaN mapped to one pattern.
// Which NaN an operation on two NaNs returns depends on the order the
// compiler gives the operands of a commutative instruction (amd64
// returns the first operand's), so NaN payloads are no property of the
// source code; every other value, signed zeros and infinities
// included, must match bit for bit.
func valueBits(v float64) uint64 {
	if math.IsNaN(v) {
		return 0x7ff8000000000001
	}
	return math.Float64bits(v)
}

// sameBits returns the first index where a and b differ in valueBits,
// -1 if they never do, and -2 if their lengths differ.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return -2
	}
	for i := range a {
		if valueBits(a[i]) != valueBits(b[i]) {
			return i
		}
	}
	return -1
}

func sameDetections(a, b []Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cell != b[i].Cell ||
			valueBits(a[i].Value) != valueBits(b[i].Value) ||
			valueBits(a[i].Noise) != valueBits(b[i].Noise) {
			return false
		}
	}
	return true
}

// checkKernels compares every kernel with its reference on one input.
func checkKernels(t *testing.T, x, h []float64, window, guard, train int, factor float64) {
	t.Helper()
	if i := sameBits(FIR(x, h), refFIR(x, h)); i != -1 {
		t.Fatalf("FIR(len(x)=%d, len(h)=%d) differs from the reference at %d", len(x), len(h), i)
	}
	if i := sameBits(Envelope(x, window), refEnvelope(x, window)); i != -1 {
		t.Fatalf("Envelope(len(x)=%d, window=%d) differs from the reference at %d", len(x), window, i)
	}
	got, err := CACFAR(x, guard, train, factor)
	if err != nil {
		t.Fatalf("CACFAR(guard=%d, train=%d, factor=%g): %v", guard, train, factor, err)
	}
	if want := refCACFAR(x, guard, train, factor); !sameDetections(got, want) {
		t.Fatalf("CACFAR(len(x)=%d, guard=%d, train=%d, factor=%g) = %v, reference %v",
			len(x), guard, train, factor, got, want)
	}
	packed := PackF64(x)
	if string(packed) != string(refPackF64(x)) {
		t.Fatalf("PackF64(len(x)=%d) differs from the reference", len(x))
	}
	back, err := UnpackF64(packed)
	if err != nil {
		t.Fatal(err)
	}
	if i := sameBits(back, refUnpackF64(packed)); i != -1 {
		t.Fatalf("UnpackF64 differs from the reference at %d", i)
	}
}

func TestKernelsMatchReferenceShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name                         string
		nx, nh, window, guard, train int
	}{
		{"empty", 0, 0, 1, 0, 1},
		{"empty x", 0, 5, 3, 1, 2},
		{"empty h", 37, 0, 4, 2, 3},
		{"x shorter than h", 5, 12, 3, 1, 2},
		{"x one shorter than h", 11, 12, 3, 1, 2},
		{"x as long as h", 12, 12, 3, 1, 2},
		{"body of one block", 15, 8, 3, 1, 2},
		{"x not a block multiple", 203, 17, 5, 3, 7},
		{"single tap", 29, 1, 1, 0, 1},
		{"window beyond x", 10, 3, 50, 1, 2},
		{"window clamped from 0", 10, 3, 0, 1, 2},
		{"window clamped from negative", 10, 3, -4, 1, 2},
		{"guard+train = len/2", 40, 4, 4, 8, 12},
		{"guard+train > len/2", 40, 4, 4, 12, 12},
		{"guard+train > len", 40, 4, 4, 30, 30},
		{"train > len", 40, 4, 4, 1, 45},
		{"guard+train overflows", 40, 4, 4, math.MaxInt, 1},
		{"guard+train overflows, train > len", 40, 4, 4, math.MaxInt, 50},
		{"interior of one block", 4 + 2*(2+3), 3, 2, 2, 3},
		{"interior not a block multiple", 7 + 2*(2+3), 3, 2, 2, 3},
		{"zero guard", 64, 5, 2, 0, 4},
		{"radar shape", 2048, 64, 8, 8, 24},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, special := range []int{0, 7} {
				x := samples(rng, c.nx, special)
				h := samples(rng, c.nh, 0)
				checkKernels(t, x, h, c.window, c.guard, c.train, 1+9*rng.Float64())
			}
		})
	}
}

func TestKernelsMatchReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 400; n++ {
		nx, nh := rng.Intn(120), rng.Intn(40)
		special := []int{0, 3, 20}[n%3]
		x := samples(rng, nx, special)
		h := samples(rng, nh, special)
		checkKernels(t, x, h, rng.Intn(20)-2, rng.Intn(12), 1+rng.Intn(30), 1+5*rng.Float64())
	}
}

// TestKernelsSpecialValues runs inputs made only of special values, so
// every signed-zero sum, NaN comparison and infinity product occurs.
func TestKernelsSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 200; n++ {
		x := samples(rng, 1+rng.Intn(60), 1)
		h := samples(rng, rng.Intn(12), 1)
		checkKernels(t, x, h, 1+rng.Intn(9), rng.Intn(4), 1+rng.Intn(6), 1.5)
	}
	zeros := []float64{0, math.Copysign(0, -1), math.Copysign(0, -1), 0, math.Copysign(0, -1)}
	negZero := []float64{math.Copysign(0, -1), math.Copysign(0, -1)}
	checkKernels(t, zeros, negZero, 2, 0, 1, 2)
	checkKernels(t, append(zeros, zeros...), zeros, 3, 0, 1, 2)
}

// FuzzDSPKernels feeds the fuzzer's bytes to every DSP kernel as
// float64 samples, all bit patterns included, and compares each kernel
// with its reference. The last byte, when present, splits the samples
// into x and h; the small integers shape the window and CFAR.
func FuzzDSPKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(1), 2.0)
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{3, 9, 40, 90} {
		f.Add(refPackF64(samples(rng, n, 4)), uint8(n%7), uint8(n%5), uint8(1+n%9), 3.0)
	}
	f.Add(refPackF64(specials), uint8(2), uint8(1), uint8(2), 1.25)
	f.Fuzz(func(t *testing.T, data []byte, window, guard, train uint8, factor float64) {
		if !(factor > 1) {
			return // rejected by CACFAR's validation
		}
		all := refUnpackF64(data[:len(data)/8*8])
		if len(all) > 512 {
			all = all[:512]
		}
		split := 0
		if len(data) > 0 && len(all) > 0 {
			split = int(data[len(data)-1]) % (len(all) + 1)
		}
		checkKernels(t, all[split:], all[:split], int(window)-2, int(guard%32), 1+int(train%63), factor)
		if _, err := UnpackF64(data); (err == nil) != (len(data)%8 == 0) {
			t.Fatalf("UnpackF64(%d bytes) error = %v", len(data), err)
		}
	})
}

// The radar-stage micro-benchmarks use the shape of the radar app:
// 2048 samples, a 64-tap matched filter, an 8-sample envelope window
// and CFAR with 8 guard and 24 training cells.

// benchSink keeps the benchmarked calls' results alive.
var benchSink float64

func radarBenchInput(b *testing.B) (echo, pulse, env []float64) {
	pulse, err := Chirp(64, 0.05, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	echo, err = AddEchoes(2048, pulse, []int{700, 1400}, []float64{1, 0.8}, 0.03, 1000)
	if err != nil {
		b.Fatal(err)
	}
	return echo, pulse, refEnvelope(refFIR(echo, pulse), 8)
}

func BenchmarkFIR(b *testing.B) {
	echo, pulse, _ := radarBenchInput(b)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += refFIR(echo, pulse)[0]
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += FIR(echo, pulse)[0]
		}
	})
}

func BenchmarkEnvelope(b *testing.B) {
	echo, pulse, _ := radarBenchInput(b)
	mf := refFIR(echo, pulse)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += refEnvelope(mf, 8)[0]
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += Envelope(mf, 8)[0]
		}
	})
}

func BenchmarkCACFAR(b *testing.B) {
	_, _, env := radarBenchInput(b)
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += float64(len(refCACFAR(env, 8, 24, 3)))
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dets, err := CACFAR(env, 8, 24, 3)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += float64(len(dets))
		}
	})
}

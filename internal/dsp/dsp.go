// Package dsp provides the signal-processing kernels of the radar
// application (the streaming-application domain the paper's
// introduction motivates): linear-FM chirp synthesis, matched filtering
// by FIR correlation, envelope extraction and cell-averaging CFAR
// detection. Everything is deterministic float64 math so radar process
// networks are determinate, as the framework requires.
//
// FIR, Envelope and CACFAR are fast forms of one-output-at-a-time
// scalar loops, which kernels_test.go keeps as references. Every output
// is computed with the reference's floating-point operations in the
// reference's order (no fused multiply-add, no reassociated sum), so
// results match bit for bit; the speed comes from computing independent
// outputs side by side and from dropping per-sample bounds tests.
// PackF64 and UnpackF64 move one 8-byte word per sample.
package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Chirp synthesizes a linear-FM pulse of n samples sweeping from f0 to
// f1 (as fractions of the sample rate, 0 < f < 0.5).
func Chirp(n int, f0, f1 float64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: chirp length must be positive, got %d", n)
	}
	if f0 <= 0 || f1 <= 0 || f0 >= 0.5 || f1 >= 0.5 {
		return nil, fmt.Errorf("dsp: chirp frequencies must be in (0, 0.5), got %g..%g", f0, f1)
	}
	out := make([]float64, n)
	phase := 0.0
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n)
		f := f0 + (f1-f0)*frac
		phase += 2 * math.Pi * f
		out[i] = math.Sin(phase)
	}
	return out, nil
}

// FIR filters x with coefficient vector h (direct-form convolution,
// output length = len(x)): out[i] = Σ_j h[j]·x[i-j] over the j with
// i-j >= 0, accumulated in ascending j.
//
// Outputs are independent, so the body computes firBlock of them side
// by side, each in its own accumulator and in the same order. The
// head, where the window crosses x[0], and the leftover tail go one
// output at a time.
func FIR(x, h []float64) []float64 {
	out := make([]float64, len(x))
	one := func(i int) float64 {
		var acc float64
		for j, c := range h[:min(i+1, len(h))] {
			acc += c * x[i-j]
		}
		return acc
	}
	i := 0
	for ; i < min(len(h)-1, len(x)); i++ {
		out[i] = one(i)
	}
	for ; i+firBlock <= len(x); i += firBlock {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for j, c := range h {
			w := (*[firBlock]float64)(x[i-j : i-j+firBlock])
			a0 += c * w[0]
			a1 += c * w[1]
			a2 += c * w[2]
			a3 += c * w[3]
			a4 += c * w[4]
			a5 += c * w[5]
			a6 += c * w[6]
			a7 += c * w[7]
		}
		o := (*[firBlock]float64)(out[i : i+firBlock])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	for ; i < len(x); i++ {
		out[i] = one(i)
	}
	return out
}

// firBlock is how many FIR outputs the body accumulates side by side.
const firBlock = 8

// MatchedFilter correlates x against the template: an FIR with the
// time-reversed template, the optimal detector for a known pulse in
// white noise. The output peaks len(template)-1 samples after the pulse
// start.
func MatchedFilter(x, template []float64) []float64 {
	h := make([]float64, len(template))
	for i, v := range template {
		h[len(template)-1-i] = v
	}
	return FIR(x, h)
}

// Envelope returns the magnitude envelope of x via a rectified
// moving-maximum over a window (a cheap real-signal stand-in for the
// analytic-signal magnitude). NaN samples never win the maximum.
func Envelope(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(x))
	for i := range x {
		m := 0.0
		for _, v := range x[max(i-window+1, 0) : i+1] {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		out[i] = m
	}
	return out
}

// Detection is one CFAR hit.
type Detection struct {
	Cell  int
	Value float64
	Noise float64
}

// CACFAR runs cell-averaging constant-false-alarm-rate detection: for
// each cell, the noise floor is the mean of `train` cells on each side,
// skipping `guard` cells around the cell under test; a cell exceeding
// factor × noise is a detection. The training sum runs over the left
// window nearest-first, then the right window nearest-first.
//
// Interior cells, whose windows lie wholly inside x, sum cfarBlock
// cells side by side in that same order with no bounds tests. The other
// cells, near the edges or left over from the blocks, take a loop that
// tests every index: they average whatever part of their windows
// exists, and are skipped when fewer than `train` training cells do.
func CACFAR(x []float64, guard, train int, factor float64) ([]Detection, error) {
	if guard < 0 || train < 1 {
		return nil, fmt.Errorf("dsp: CFAR needs guard >= 0 and train >= 1, got %d/%d", guard, train)
	}
	if factor <= 1 {
		return nil, fmt.Errorf("dsp: CFAR factor must exceed 1, got %g", factor)
	}
	var dets []Detection
	detect := func(i int, sum float64, n int) {
		noise := sum / float64(n)
		if noise <= 0 {
			noise = 1e-12
		}
		if x[i] > factor*noise {
			dets = append(dets, Detection{Cell: i, Value: x[i], Noise: noise})
		}
	}
	edge := func(i int) {
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
		if n >= train { // else not enough context at the edges
			detect(i, sum, n)
		}
	}
	// Interior cells are [reach, len(x)-reach). Clamping guard and train
	// keeps the sum from overflowing and leaves no interior when either
	// reaches past x.
	reach := min(guard, len(x)) + min(train, len(x))
	i := 0
	for ; i < min(reach, len(x)); i++ {
		edge(i)
	}
	for ; i+cfarBlock <= len(x)-reach; i += cfarBlock {
		var s0, s1, s2, s3 float64
		for j := 1; j <= train; j++ {
			w := (*[cfarBlock]float64)(x[i-guard-j : i-guard-j+cfarBlock])
			s0 += w[0]
			s1 += w[1]
			s2 += w[2]
			s3 += w[3]
		}
		for j := 1; j <= train; j++ {
			w := (*[cfarBlock]float64)(x[i+guard+j : i+guard+j+cfarBlock])
			s0 += w[0]
			s1 += w[1]
			s2 += w[2]
			s3 += w[3]
		}
		detect(i, s0, 2*train)
		detect(i+1, s1, 2*train)
		detect(i+2, s2, 2*train)
		detect(i+3, s3, 2*train)
	}
	for ; i < len(x); i++ {
		edge(i)
	}
	return dets, nil
}

// cfarBlock is how many interior CFAR cells sum side by side.
const cfarBlock = 4

// AddEchoes returns a noisy return signal: scaled copies of the pulse
// at the given delays plus deterministic pseudo-noise of the given
// amplitude (seeded, so process networks stay determinate).
func AddEchoes(n int, pulse []float64, delays []int, gains []float64, noiseAmp float64, seed int64) ([]float64, error) {
	if len(delays) != len(gains) {
		return nil, fmt.Errorf("dsp: %d delays vs %d gains", len(delays), len(gains))
	}
	out := make([]float64, n)
	state := uint64(seed)*2654435761 + 1
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / float64(1<<53) // [0,1)
		out[i] = noiseAmp * (2*u - 1)
	}
	for e, d := range delays {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("dsp: echo delay %d outside [0,%d)", d, n)
		}
		for i, v := range pulse {
			if d+i < n {
				out[d+i] += gains[e] * v
			}
		}
	}
	return out, nil
}

// PackF64 and UnpackF64 serialize sample vectors for token payloads:
// each sample's IEEE-754 bits, little-endian.
func PackF64(x []float64) []byte {
	out := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// UnpackF64 reverses PackF64.
func UnpackF64(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("dsp: payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

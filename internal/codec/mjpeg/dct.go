package mjpeg

import "math"

// cosTable[u][x] = cos((2x+1)uπ/16), the 1-D DCT basis.
var cosTable [8][8]float64

// dctScale[u] = C(u)/2 with C(0) = 1/√2, C(u>0) = 1.
var dctScale [8]float64

func init() {
	for u := 0; u < 8; u++ {
		for x := 0; x < 8; x++ {
			cosTable[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
		dctScale[u] = 0.5
	}
	dctScale[0] = 0.5 / math.Sqrt2
}

// fdct performs the forward 8×8 DCT-II in place (separable: rows then
// columns). Input values are level-shifted pixels; output are
// frequency-domain coefficients.
func fdct(block *[64]float64) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += block[y*8+x] * cosTable[u][x]
			}
			tmp[y*8+u] = s * dctScale[u]
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * cosTable[v][y]
			}
			block[v*8+u] = s * dctScale[v]
		}
	}
}

// idct performs the inverse 8×8 DCT-III in place, the exact inverse of
// fdct up to floating-point rounding. Each output is the sum over v
// ascending of dctScale[v]·coef·cosTable[v][y], evaluated left to
// right. The eight outputs of a column (then of a row) accumulate side
// by side, and the left product dctScale[v]·coef, shared by all eight,
// is formed once per v: every output sees the same operations in the
// same order as when computed alone.
func idct(block *[64]float64) {
	var tmp [64]float64
	// Columns.
	for u := 0; u < 8; u++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for v := 0; v < 8; v++ {
			a := dctScale[v] * block[v*8+u]
			c := &cosTable[v]
			s0 += a * c[0]
			s1 += a * c[1]
			s2 += a * c[2]
			s3 += a * c[3]
			s4 += a * c[4]
			s5 += a * c[5]
			s6 += a * c[6]
			s7 += a * c[7]
		}
		tmp[u], tmp[8+u], tmp[16+u], tmp[24+u] = s0, s1, s2, s3
		tmp[32+u], tmp[40+u], tmp[48+u], tmp[56+u] = s4, s5, s6, s7
	}
	// Rows.
	for y := 0; y < 8; y++ {
		row := (*[8]float64)(tmp[y*8 : y*8+8])
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for u := 0; u < 8; u++ {
			a := dctScale[u] * row[u]
			c := &cosTable[u]
			s0 += a * c[0]
			s1 += a * c[1]
			s2 += a * c[2]
			s3 += a * c[3]
			s4 += a * c[4]
			s5 += a * c[5]
			s6 += a * c[6]
			s7 += a * c[7]
		}
		out := (*[8]float64)(block[y*8 : y*8+8])
		out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		out[4], out[5], out[6], out[7] = s4, s5, s6, s7
	}
}

// baseQuant is the standard JPEG luminance quantization table (ITU T.81
// Annex K), in natural (row-major) order.
var baseQuant = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// quantTable scales the base table for a quality setting in [1, 100]
// using the libjpeg convention.
func quantTable(quality int) [64]int {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	scale := 200 - 2*quality
	if quality < 50 {
		scale = 5000 / quality
	}
	var q [64]int
	for i, b := range baseQuant {
		v := (b*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		q[i] = v
	}
	return q
}

// zigzag maps scan position to natural block index (row-major).
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// Package mjpeg implements the Motion-JPEG-style intra-frame codec used
// by the paper's first benchmark application: a baseline JPEG-like
// transform codec for 8-bit grayscale frames (the paper's decoded frames
// are 320×240 at 76.8 KB — exactly one byte per pixel). Each frame is
// coded independently: 8×8 blocks are DCT-transformed, quantized with a
// quality-scaled luminance table, zigzag-scanned, DC-DPCM and AC
// run-length coded, and entropy-coded with a canonical Huffman code
// built deterministically at init. The bitstream is this package's own
// (not ITU T.81 compatible), but the codec exercises the same pipeline
// stages — split, transform, entropy code, merge — that the paper's
// MJPEG process network is built from.
package mjpeg

import "fmt"

// Frame is an 8-bit grayscale image.
type Frame struct {
	W, H int
	Pix  []byte // row-major, len = W*H
}

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("mjpeg: invalid frame size %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]byte, w*h)}
}

// At returns the pixel at (x, y).
func (f *Frame) At(x, y int) byte { return f.Pix[y*f.W+x] }

// Set writes the pixel at (x, y).
func (f *Frame) Set(x, y int, v byte) { f.Pix[y*f.W+x] = v }

// TestFrame synthesizes frame i of a deterministic video-like sequence:
// a diagonal gradient, a moving bright square, and hash-based texture
// noise. It stands in for the paper's proprietary input video (see
// DESIGN.md substitutions) while giving the codec realistic structure.
func TestFrame(w, h int, i int64) *Frame {
	f := NewFrame(w, h)
	sq := w / 8
	if h/8 < sq {
		sq = h / 8
	}
	if sq < 1 {
		sq = 1
	}
	mod := func(a, m int64) int {
		r := a % m
		if r < 0 {
			r += m
		}
		return int(r)
	}
	sx := mod(i*7, int64(w-sq+1))
	sy := mod(i*3, int64(h-sq+1))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := mod(int64(x+y)+i, 256)
			// Texture noise, deterministic in (x, y, i).
			n := uint64(x)*1099511628211 ^ uint64(y)*14695981039346656037 ^ uint64(i)*2654435761
			n ^= n >> 29
			v = (v + int(n%23)) % 256
			if x >= sx && x < sx+sq && y >= sy && y < sy+sq {
				v = 240
			}
			f.Pix[y*w+x] = byte(v)
		}
	}
	return f
}

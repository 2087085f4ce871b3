package h264

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Exp-Golomb coding, the entropy layer of H.264 headers and (in this
// simplified encoder) of residual levels.

// errBitstream reports truncated or corrupt input.
var errBitstream = fmt.Errorf("h264: truncated or corrupt bitstream")

// bitWriter packs bits MSB-first. Pending bits collect in a 64-bit
// accumulator and leave it eight bytes at a time.
type bitWriter struct {
	buf []byte
	acc uint64 // the low n bits are pending; higher bits are stale
	n   int    // pending bits, 0..63
}

// writeBits appends the n-bit code v (0 < n < 64, v < 1<<n). When the
// accumulator fills, its 64 bits, completed with v's top bits, are
// appended and v's remaining low bits stay pending.
func (w *bitWriter) writeBits(v uint64, n int) {
	w.n += n
	if w.n >= 64 {
		w.n -= 64
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<(n-w.n)|v>>w.n)
	}
	w.acc = w.acc<<n | v
}

// writeUE writes an unsigned Exp-Golomb code ue(v): for x = v+1 of
// n+1 significant bits, n zero bits and then x, so the whole code is x
// in 2n+1 bits. v = 2^32-1 wraps x to 0 and writes a single 0 bit.
func (w *bitWriter) writeUE(v uint32) {
	x := v + 1
	n := bits.Len32(x|1) - 1
	w.writeBits(uint64(x), 2*n+1)
}

// writeSE writes a signed Exp-Golomb code se(v): v>0 → 2v-1, v<=0 → -2v.
func (w *bitWriter) writeSE(v int32) {
	u := uint32(-2 * v)
	if v > 0 {
		u = uint32(2*v - 1)
	}
	w.writeUE(u)
}

// flush pads with zero bits to a byte boundary (rbsp-trailing style with
// a stop bit first).
func (w *bitWriter) flush() []byte {
	w.writeBits(1, 1) // stop bit
	pad := -w.n & 7
	for k := w.n + pad - 8; k >= 0; k -= 8 {
		w.buf = append(w.buf, byte(w.acc<<pad>>k))
	}
	w.acc, w.n = 0, 0
	return w.buf
}

// bitReader consumes bits MSB-first.
type bitReader struct {
	buf []byte
	pos int
	bit int
}

func (r *bitReader) readBit() (uint32, error) {
	if r.pos >= len(r.buf) {
		return 0, errBitstream
	}
	b := (r.buf[r.pos] >> uint(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return uint32(b), nil
}

func (r *bitReader) readBits(n int) (uint32, error) {
	var v uint32
	for i := 0; i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

// readUE reads ue(v).
func (r *bitReader) readUE() (uint32, error) {
	n := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 31 {
			return 0, errBitstream
		}
	}
	if n == 0 {
		return 0, nil
	}
	rest, err := r.readBits(n)
	if err != nil {
		return 0, err
	}
	return (1<<uint(n) | rest) - 1, nil
}

// readSE reads se(v).
func (r *bitReader) readSE() (int32, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}

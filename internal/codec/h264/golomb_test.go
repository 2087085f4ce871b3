package h264

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refBitWriter is the reference semantics of bitWriter: one bit at a
// time into a byte. The word-wide writer must produce the same bytes
// for every sequence of codes.
type refBitWriter struct {
	buf  []byte
	cur  byte
	nCur int
}

func (w *refBitWriter) writeBit(b uint32) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *refBitWriter) writeBits(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		w.writeBit(v >> uint(i))
	}
}

func (w *refBitWriter) writeUE(v uint32) {
	x := v + 1
	n := 0
	for t := x; t > 1; t >>= 1 {
		n++
	}
	for i := 0; i < n; i++ {
		w.writeBit(0)
	}
	w.writeBits(x, n+1)
}

func (w *refBitWriter) writeSE(v int32) {
	if v > 0 {
		w.writeUE(uint32(2*v - 1))
	} else {
		w.writeUE(uint32(-2 * v))
	}
}

func (w *refBitWriter) flush() []byte {
	w.writeBit(1)
	for w.nCur != 0 {
		w.writeBit(0)
	}
	return w.buf
}

// golombOp is one code: ue(v) when signed is false, se(int32(v)) else.
type golombOp struct {
	signed bool
	v      uint32
}

func writeBoth(ops []golombOp) (fast, ref []byte) {
	var w bitWriter
	var r refBitWriter
	for _, op := range ops {
		if op.signed {
			w.writeSE(int32(op.v))
			r.writeSE(int32(op.v))
		} else {
			w.writeUE(op.v)
			r.writeUE(op.v)
		}
	}
	return w.flush(), r.flush()
}

func checkGolomb(t *testing.T, ops []golombOp) {
	t.Helper()
	if fast, ref := writeBoth(ops); !bytes.Equal(fast, ref) {
		t.Fatalf("bitWriter wrote\n%x\nreference wrote\n%x\nfor %v", fast, ref, ops)
	}
}

// maxEncoderLevel bounds |level| for any block Encode can quantize, so
// its se(level) codes are at most 25 bits long. A residual is at most
// 255 in magnitude, the core transform's largest gain is 6·6 (class 1)
// and the quantizer's largest multiplier is 13107/2^15 (QP 0, class 0);
// their product over-estimates every class (the true largest level
// is 1,632, at class 0).
const maxEncoderLevel = 255 * 6 * 6 * 13107 >> 15

func TestBitWriterMatchesReference(t *testing.T) {
	checkGolomb(t, nil)
	// Every code length, 1 to 63 bits, at every starting bit offset.
	for lead := 0; lead < 64; lead++ {
		for n := 0; n < 32; n++ {
			lo, hi := uint32(1)<<n-1, uint32(1)<<n
			ops := make([]golombOp, 0, lead+6)
			for i := 0; i < lead; i++ {
				ops = append(ops, golombOp{v: 0})
			}
			ops = append(ops, golombOp{v: lo}, golombOp{v: hi*2 - 2}, golombOp{v: lo}, golombOp{v: ^uint32(0)})
			checkGolomb(t, ops)
		}
	}
	// The signed codes of every level the encoder can emit, and the
	// extremes of int32.
	var ops []golombOp
	for l := -maxEncoderLevel - 2; l <= maxEncoderLevel+2; l++ {
		ops = append(ops, golombOp{signed: true, v: uint32(int32(l))})
	}
	for _, v := range []int32{1 << 30, 1<<31 - 1, -1 << 31, -1<<31 + 1} {
		ops = append(ops, golombOp{signed: true, v: uint32(v)})
	}
	checkGolomb(t, ops)
	// Random mixes of short and long codes.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		ops := make([]golombOp, rng.Intn(200))
		for i := range ops {
			ops[i] = golombOp{signed: rng.Intn(2) == 0, v: rng.Uint32() >> rng.Intn(33)}
		}
		checkGolomb(t, ops)
	}
}

// FuzzBitWriter reads the fuzzer's bytes as codes of five bytes each:
// a flag byte (bit 0 selects se, bits 1-5 shift the value right, so
// short codes are common) and a 32-bit value.
func FuzzBitWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 1, 0x80, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{3 << 1, 0, 0, 0, 9, 1<<1 | 1, 0xff, 0xff, 0xff, 0xfe}, 13))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []golombOp
		for ; len(data) >= 5; data = data[5:] {
			v := binary.BigEndian.Uint32(data[1:5]) >> (data[0] >> 1 & 31)
			ops = append(ops, golombOp{signed: data[0]&1 == 1, v: v})
		}
		checkGolomb(t, ops)
	})
}

// benchSink keeps the benchmarked writers' output alive.
var benchSink int

// BenchmarkExpGolomb writes a seeded code mix shaped like one 64×48
// frame's: per 4×4 block a mode, a nonzero count, and a (run, level)
// pair per nonzero coefficient.
func BenchmarkExpGolomb(b *testing.B) {
	var ops []golombOp
	rng := rand.New(rand.NewSource(1))
	for blk := 0; blk < 64*48/16; blk++ {
		nz := rng.Intn(6)
		ops = append(ops, golombOp{v: uint32(rng.Intn(3))}, golombOp{v: uint32(nz)})
		for i := 0; i < nz; i++ {
			ops = append(ops, golombOp{v: uint32(rng.Intn(4))}, golombOp{signed: true, v: uint32(int32(rng.Intn(41) - 20))})
		}
	}
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := refBitWriter{buf: make([]byte, 0, 64*48/8)}
			for _, op := range ops {
				if op.signed {
					w.writeSE(int32(op.v))
				} else {
					w.writeUE(op.v)
				}
			}
			benchSink += len(w.flush())
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := bitWriter{buf: make([]byte, 0, 64*48/8)}
			for _, op := range ops {
				if op.signed {
					w.writeSE(int32(op.v))
				} else {
					w.writeUE(op.v)
				}
			}
			benchSink += len(w.flush())
		}
	})
}

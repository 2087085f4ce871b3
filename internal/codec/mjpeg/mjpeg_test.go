package mjpeg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDCTRoundTrip(t *testing.T) {
	var block, orig [64]float64
	for i := range block {
		block[i] = float64((i*37)%256) - 128
		orig[i] = block[i]
	}
	fdct(&block)
	idct(&block)
	for i := range block {
		if math.Abs(block[i]-orig[i]) > 1e-9 {
			t.Fatalf("DCT round-trip error at %d: %g vs %g", i, block[i], orig[i])
		}
	}
}

func TestDCTDCCoefficient(t *testing.T) {
	// A flat block transforms to a single DC coefficient = 8*value.
	var block [64]float64
	for i := range block {
		block[i] = 10
	}
	fdct(&block)
	if math.Abs(block[0]-80) > 1e-9 {
		t.Errorf("DC = %g, want 80", block[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(block[i]) > 1e-9 {
			t.Errorf("AC[%d] = %g, want 0", i, block[i])
		}
	}
}

func TestQuantTableScaling(t *testing.T) {
	q50 := quantTable(50)
	if q50 != baseQuant {
		t.Error("quality 50 must reproduce the base table")
	}
	q90, q10 := quantTable(90), quantTable(10)
	for i := range q90 {
		if q90[i] > q50[i] {
			t.Fatalf("q90[%d] = %d > q50 %d", i, q90[i], q50[i])
		}
		if q10[i] < q50[i] {
			t.Fatalf("q10[%d] = %d < q50 %d", i, q10[i], q50[i])
		}
	}
	// Clamping.
	q1 := quantTable(-5)
	for _, v := range q1 {
		if v < 1 || v > 255 {
			t.Fatalf("clamped table entry %d outside [1,255]", v)
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	var seen [64]bool
	for _, v := range zigzag {
		if v < 0 || v > 63 || seen[v] {
			t.Fatal("zigzag is not a permutation of 0..63")
		}
		seen[v] = true
	}
	// First entries follow the JPEG scan.
	if zigzag[0] != 0 || zigzag[1] != 1 || zigzag[2] != 8 || zigzag[63] != 63 {
		t.Error("zigzag prefix/suffix wrong")
	}
}

func TestBitIORoundTrip(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(0b101, 3)
	w.writeBits(0xFFFF, 16)
	w.writeBits(0, 5)
	buf := w.flush()
	r := &bitReader{buf: buf}
	if v, _ := r.readBits(3); v != 0b101 {
		t.Errorf("read 3 bits = %b", v)
	}
	if v, _ := r.readBits(16); v != 0xFFFF {
		t.Errorf("read 16 bits = %x", v)
	}
	if v, _ := r.readBits(5); v != 0 {
		t.Errorf("read 5 bits = %b", v)
	}
	if _, err := r.readBits(9); err == nil {
		t.Error("reading past end should fail")
	}
}

func TestHuffmanRoundTripAllSymbols(t *testing.T) {
	for _, table := range []*huffTable{dcTable, acTable} {
		w := &bitWriter{}
		var syms []byte
		for s := range table.codes {
			syms = append(syms, s)
		}
		for _, s := range syms {
			if err := table.encode(w, s); err != nil {
				t.Fatal(err)
			}
		}
		r := &bitReader{buf: w.flush()}
		for i, want := range syms {
			got, err := table.decode(r)
			if err != nil {
				t.Fatalf("decode symbol %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("symbol %d = %#x, want %#x", i, got, want)
			}
		}
	}
}

func TestHuffmanPrefixFree(t *testing.T) {
	for _, table := range []*huffTable{dcTable, acTable} {
		type cd struct {
			bits uint32
			n    uint8
		}
		var all []cd
		for _, c := range table.codes {
			all = append(all, cd{c.bits, c.n})
		}
		for i := range all {
			for j := range all {
				if i == j {
					continue
				}
				a, b := all[i], all[j]
				if a.n <= b.n && b.bits>>(b.n-a.n) == a.bits {
					t.Fatalf("code %b/%d is a prefix of %b/%d", a.bits, a.n, b.bits, b.n)
				}
			}
		}
	}
}

func TestHuffmanUnknownSymbol(t *testing.T) {
	w := &bitWriter{}
	if err := acTable.encode(w, 0x0B); err == nil { // size 11 not in alphabet
		t.Error("unknown symbol should fail")
	}
}

func TestMagnitudeRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, -1, 5, -5, 127, -127, 1023, -1023} {
		size := magnitudeCategory(v)
		w := &bitWriter{}
		encodeMagnitude(w, v, size)
		if v == 0 {
			continue
		}
		r := &bitReader{buf: w.flush()}
		got, err := decodeMagnitude(r, size)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Errorf("magnitude %d round-tripped to %d", v, got)
		}
	}
}

func TestMagnitudeCategory(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, -1: 1, 2: 2, 3: 2, -4: 3, 255: 8, -256: 9}
	for v, want := range cases {
		if got := magnitudeCategory(v); got != want {
			t.Errorf("category(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestEncodeDecodeQuality(t *testing.T) {
	f := TestFrame(320, 240, 0)
	data, err := Encode(f, 75)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := psnr(f, dec)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 28 {
		t.Errorf("PSNR = %.1f dB, want >= 28 (recognizable reconstruction)", psnr)
	}
	if len(dec.Pix) != 320*240 {
		t.Errorf("decoded %d pixels", len(dec.Pix))
	}
}

func TestEncodedSizeNearPaper(t *testing.T) {
	// The paper's encoded 320x240 frames are ~10 KB. Our synthetic
	// frames at a mid quality should land in the same ballpark
	// (shape, not exact match).
	f := TestFrame(320, 240, 7)
	data, err := Encode(f, 70)
	if err != nil {
		t.Fatal(err)
	}
	kb := float64(len(data)) / 1024
	if kb < 2 || kb > 40 {
		t.Errorf("encoded frame = %.1f KB, want within [2,40] KB (paper ~10 KB)", kb)
	}
	t.Logf("encoded 320x240 frame: %.1f KB", kb)
}

func TestQualityMonotonicity(t *testing.T) {
	f := TestFrame(320, 240, 3)
	lo, err := Encode(f, 20)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Encode(f, 95)
	if err != nil {
		t.Fatal(err)
	}
	if len(hi) <= len(lo) {
		t.Errorf("higher quality should be larger: q95=%d q20=%d", len(hi), len(lo))
	}
	decLo, _ := Decode(lo)
	decHi, _ := Decode(hi)
	pLo, _ := psnr(f, decLo)
	pHi, _ := psnr(f, decHi)
	if pHi <= pLo {
		t.Errorf("higher quality should have higher PSNR: %.1f vs %.1f", pHi, pLo)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(&Frame{W: 10, H: 8, Pix: make([]byte, 80)}, 50); err == nil {
		t.Error("non-multiple-of-8 width should fail")
	}
	if _, err := Encode(&Frame{W: 8, H: 8, Pix: make([]byte, 10)}, 50); err == nil {
		t.Error("wrong pixel buffer length should fail")
	}
	f := TestFrame(8, 8, 0)
	if _, err := Encode(f, 0); err == nil {
		t.Error("quality 0 should fail")
	}
	if _, err := Encode(f, 101); err == nil {
		t.Error("quality 101 should fail")
	}
}

func TestDecodeValidation(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short data should fail")
	}
	if _, err := Decode(make([]byte, headerBytes)); err == nil {
		t.Error("bad magic should fail")
	}
	f := TestFrame(16, 16, 0)
	good, _ := Encode(f, 50)
	bad := append([]byte{}, good...)
	bad[5] = 0 // width 0
	if _, err := Decode(bad); err == nil {
		t.Error("zero width should fail")
	}
	bad2 := append([]byte{}, good...)
	bad2[8] = 0 // quality 0
	if _, err := Decode(bad2); err == nil {
		t.Error("zero quality should fail")
	}
	// Truncated bitstream.
	if _, err := Decode(good[:len(good)-8]); err == nil {
		t.Error("truncated bitstream should fail")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	f := TestFrame(64, 64, 11)
	a, _ := Encode(f, 60)
	b, _ := Encode(f, 60)
	if string(a) != string(b) {
		t.Error("encoder must be deterministic")
	}
}

func TestFrameAccessors(t *testing.T) {
	f := NewFrame(8, 8)
	f.Set(3, 2, 99)
	if f.At(3, 2) != 99 {
		t.Error("Set/At broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewFrame(0,0) should panic")
		}
	}()
	NewFrame(0, 0)
}

func TestPSNRIdentical(t *testing.T) {
	f := TestFrame(16, 16, 0)
	p, err := psnr(f, f)
	if err != nil || !math.IsInf(p, 1) {
		t.Errorf("psnr(f,f) = %v, %v; want +Inf", p, err)
	}
	g := TestFrame(8, 8, 0)
	if _, err := psnr(f, g); err == nil {
		t.Error("size mismatch should fail")
	}
}

// Property: random small frames round-trip without decoder errors and
// with bounded size expansion.
func TestEncodeDecodeProperty(t *testing.T) {
	prop := func(seed int64, qRaw uint8) bool {
		q := int(qRaw%100) + 1
		f := TestFrame(32, 24, seed%1000)
		data, err := Encode(f, q)
		if err != nil {
			return false
		}
		dec, err := Decode(data)
		if err != nil {
			return false
		}
		return dec.W == 32 && dec.H == 24
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFastDCTMatchesReference(t *testing.T) {
	// Property: the AAN path equals the direct transform to floating
	// point accuracy on arbitrary blocks.
	state := int64(12345)
	for trial := 0; trial < 200; trial++ {
		var a, b [64]float64
		for i := range a {
			state = state*6364136223846793005 + 1442695040888963407
			v := float64(int32(state>>33)%256) - 128
			a[i], b[i] = v, v
		}
		fdct(&a)
		fdctFast(&b)
		for i := range a {
			d := a[i] - b[i]
			if d < -1e-6 || d > 1e-6 {
				t.Fatalf("trial %d coef %d: direct %g vs fast %g", trial, i, a[i], b[i])
			}
		}
	}
}

func TestAANScaleConsistency(t *testing.T) {
	// The per-frequency ratio must be constant across all basis inputs;
	// verify the full 1-D matrices agree after correction.
	for x := 0; x < 8; x++ {
		var v [8]float64
		v[x] = 1
		aan1D(v[:], 1)
		for u := 0; u < 8; u++ {
			ref := dctScale[u] * cosTable[u][x]
			got := v[u] / aanScale1D[u]
			if d := got - ref; d < -1e-9 || d > 1e-9 {
				t.Fatalf("basis %d freq %d: %g vs %g", x, u, got, ref)
			}
		}
	}
}

func BenchmarkDCTDirect(b *testing.B) {
	var block [64]float64
	for i := range block {
		block[i] = float64(i%17) - 8
	}
	for i := 0; i < b.N; i++ {
		blk := block
		fdct(&blk)
	}
}

func BenchmarkDCTFastAAN(b *testing.B) {
	var block [64]float64
	for i := range block {
		block[i] = float64(i%17) - 8
	}
	for i := 0; i < b.N; i++ {
		blk := block
		fdctFast(&blk)
	}
}

// psnr returns the peak signal-to-noise ratio between two equally sized
// frames in dB (+Inf for identical frames).
func psnr(a, b *Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("mjpeg: PSNR size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var sum float64
	for i := range a.Pix {
		d := float64(int(a.Pix[i]) - int(b.Pix[i]))
		sum += d * d
	}
	if sum == 0 {
		return math.Inf(1), nil
	}
	mse := sum / float64(len(a.Pix))
	return 10 * math.Log10(255*255/mse), nil
}

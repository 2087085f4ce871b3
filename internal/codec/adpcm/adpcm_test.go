package adpcm

import (
	"math"
	"testing"
	"testing/quick"
)

// sine synthesizes a test tone.
func sine(n int, freq, rate float64, amp int16) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = int16(float64(amp) * math.Sin(2*math.Pi*freq*float64(i)/rate))
	}
	return out
}

func TestRoundTripSine(t *testing.T) {
	orig := sine(2048, 440, 48000, 20000)
	block, err := EncodeBlock(orig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(orig) {
		t.Fatalf("decoded %d samples, want %d", len(dec), len(orig))
	}
	// ADPCM is lossy but must track a smooth signal closely after the
	// adaptation transient.
	if e := maxReconstructionError(orig[256:], dec[256:]); e > 2500 {
		t.Errorf("steady-state error %d too high", e)
	}
}

func TestCompressionRatio(t *testing.T) {
	// The paper's application performs 4:1 compression: 16-bit samples
	// become 4-bit codes.
	n := 1500
	block, err := EncodeBlock(sine(n, 1000, 48000, 10000))
	if err != nil {
		t.Fatal(err)
	}
	pcmBytes := n * 2
	if got := len(block); got != CompressedSize(n) {
		t.Errorf("block size %d, want %d", got, CompressedSize(n))
	}
	ratio := float64(pcmBytes) / float64(len(block)-HeaderBytes)
	if ratio != 4.0 {
		t.Errorf("compression ratio %.2f, want 4.0", ratio)
	}
}

func TestOddSampleCountRejected(t *testing.T) {
	if _, err := EncodeBlock(make([]int16, 3)); err == nil {
		t.Error("odd sample count should fail")
	}
}

func TestDecodeShortBlockRejected(t *testing.T) {
	if _, err := DecodeBlock([]byte{1, 2}); err == nil {
		t.Error("short block should fail")
	}
}

func TestDecodeCorruptIndexRejected(t *testing.T) {
	block := []byte{0, 0, 200, 0, 0x11}
	if _, err := DecodeBlock(block); err == nil {
		t.Error("corrupt step index should fail")
	}
}

func TestDeterministic(t *testing.T) {
	orig := sine(512, 220, 44100, 15000)
	a, _ := EncodeBlock(orig)
	b, _ := EncodeBlock(orig)
	if string(a) != string(b) {
		t.Error("encoder must be deterministic")
	}
}

func TestSilenceEncodesCleanly(t *testing.T) {
	orig := make([]int16, 256)
	block, err := EncodeBlock(orig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxReconstructionError(orig, dec); e > 16 {
		t.Errorf("silence error %d, want near zero", e)
	}
}

func TestExtremeAmplitudeClamps(t *testing.T) {
	orig := make([]int16, 64)
	for i := range orig {
		if i%2 == 0 {
			orig[i] = 32767
		} else {
			orig[i] = -32768
		}
	}
	block, err := EncodeBlock(orig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlock(block); err != nil {
		t.Errorf("extreme signal must still decode: %v", err)
	}
}

// Property: every even-length sample vector round-trips to the same
// length, and the decoder is the exact inverse predictor of the encoder
// (re-encoding the decoded signal is stable).
func TestRoundTripProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw)%2 != 0 {
			raw = raw[:len(raw)-len(raw)%2]
		}
		if len(raw) == 0 {
			return true
		}
		block, err := EncodeBlock(raw)
		if err != nil {
			return false
		}
		dec, err := DecodeBlock(block)
		if err != nil {
			return false
		}
		if len(dec) != len(raw) {
			return false
		}
		// Decoded signal re-encodes to within one quantization step of
		// itself (codec stability).
		block2, err := EncodeBlock(dec)
		if err != nil {
			return false
		}
		dec2, err := DecodeBlock(block2)
		if err != nil {
			return false
		}
		return len(dec2) == len(dec)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxReconstructionErrorHelper(t *testing.T) {
	if e := maxReconstructionError([]int16{10, -5}, []int16{7, -9}); e != 4 {
		t.Errorf("error = %d, want 4", e)
	}
	if e := maxReconstructionError([]int16{1, 2, 3}, []int16{1}); e != 0 {
		t.Errorf("length-mismatch error = %d, want 0", e)
	}
}

// maxReconstructionError returns the worst absolute error between the
// original and decoded samples.
func maxReconstructionError(orig, decoded []int16) int {
	n := len(orig)
	if len(decoded) < n {
		n = len(decoded)
	}
	maxErr := 0
	for i := 0; i < n; i++ {
		e := int(orig[i]) - int(decoded[i])
		if e < 0 {
			e = -e
		}
		if e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// Package adpcm implements the IMA ADPCM codec used by the paper's
// second benchmark application: a 4:1 compression of 16-bit PCM audio
// into 4-bit codes (encoder) and its exact inverse prediction (decoder).
// Blocks are self-contained: a 4-byte header carries the initial
// predictor and step index so any block decodes independently, which is
// what lets the process-network stages treat one 3 KB sample block as
// one token.
package adpcm

import (
	"encoding/binary"
	"fmt"
)

// indexTable adjusts the step index after each 4-bit code.
var indexTable = [16]int{
	-1, -1, -1, -1, 2, 4, 6, 8,
	-1, -1, -1, -1, 2, 4, 6, 8,
}

// stepTable is the standard 89-entry IMA quantizer step size table.
var stepTable = [89]int{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
	19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
	50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
	130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
	337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
	876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
	5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
	15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

// HeaderBytes is the per-block header size: initial predictor (int16)
// plus step index (uint8) plus padding.
const HeaderBytes = 4

// state is the shared predictor state of encoder and decoder.
type state struct {
	predictor int // current predicted sample, clamped to int16 range
	index     int // index into stepTable
}

func clampPredictor(v int) int {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return v
}

func clampIndex(v int) int {
	if v < 0 {
		return 0
	}
	if v > 88 {
		return 88
	}
	return v
}

// step runs the shared decode step: given a 4-bit code, update the
// predictor and index, returning the reconstructed sample. Encoder and
// decoder use the identical routine, which is what makes the codec
// drift-free.
func (s *state) step(code byte) int {
	st := stepTable[s.index]
	diff := st >> 3
	if code&1 != 0 {
		diff += st >> 2
	}
	if code&2 != 0 {
		diff += st >> 1
	}
	if code&4 != 0 {
		diff += st
	}
	if code&8 != 0 {
		s.predictor -= diff
	} else {
		s.predictor += diff
	}
	s.predictor = clampPredictor(s.predictor)
	s.index = clampIndex(s.index + indexTable[code])
	return s.predictor
}

// encodeSample quantizes one sample against the current state and
// advances the state exactly as the decoder will.
func (s *state) encodeSample(sample int) byte {
	st := stepTable[s.index]
	diff := sample - s.predictor
	var code byte
	if diff < 0 {
		code = 8
		diff = -diff
	}
	if diff >= st {
		code |= 4
		diff -= st
	}
	if diff >= st>>1 {
		code |= 2
		diff -= st >> 1
	}
	if diff >= st>>2 {
		code |= 1
	}
	s.step(code)
	return code
}

// EncodeBlock compresses PCM samples into a self-contained ADPCM block:
// a 4-byte header (initial predictor and index zeroed per block) plus
// one nibble per sample, low nibble first. len(samples) must be even.
func EncodeBlock(samples []int16) ([]byte, error) {
	if len(samples)%2 != 0 {
		return nil, fmt.Errorf("adpcm: sample count must be even, got %d", len(samples))
	}
	s := state{}
	out := make([]byte, HeaderBytes, HeaderBytes+len(samples)/2)
	binary.LittleEndian.PutUint16(out[0:2], uint16(int16(s.predictor)))
	out[2] = byte(s.index)
	for i := 0; i < len(samples); i += 2 {
		lo := s.encodeSample(int(samples[i]))
		hi := s.encodeSample(int(samples[i+1]))
		out = append(out, lo|hi<<4)
	}
	return out, nil
}

// DecodeBlock reconstructs the PCM samples of one block produced by
// EncodeBlock.
func DecodeBlock(block []byte) ([]int16, error) {
	if len(block) < HeaderBytes {
		return nil, fmt.Errorf("adpcm: block of %d bytes shorter than header", len(block))
	}
	s := state{
		predictor: int(int16(binary.LittleEndian.Uint16(block[0:2]))),
		index:     int(block[2]),
	}
	if s.index > 88 {
		return nil, fmt.Errorf("adpcm: corrupt header step index %d", s.index)
	}
	data := block[HeaderBytes:]
	out := make([]int16, 0, len(data)*2)
	for _, b := range data {
		out = append(out, int16(s.step(b&0x0F)))
		out = append(out, int16(s.step(b>>4)))
	}
	return out, nil
}

// CompressedSize returns the block size EncodeBlock produces for n
// samples.
func CompressedSize(n int) int { return HeaderBytes + n/2 }

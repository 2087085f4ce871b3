// Package apps builds the paper's three benchmark applications as
// real-time process networks (Figure 2): the MJPEG decoder, the ADPCM
// encoder+decoder application and the H.264 encoder. Every network has
// one producer, one consumer and a critical subnetwork in between, with
// timing parameters from Table 1 expressed as <period, jitter, delay>
// PJD tuples in microseconds. The critical stages carry real codec
// payloads (packages codec/mjpeg, codec/adpcm, codec/h264), so the
// networks are determinate and value equivalence between the reference
// and duplicated systems is checkable, not assumed.
package apps

import (
	"encoding/binary"
	"fmt"

	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

// StageTiming is the execution-time model of one critical stage per
// replica: Base plus a per-replica jitter (the paper's design diversity,
// Table 1: e.g. replica 1 <30,5,30> vs replica 2 <30,30,30>).
type StageTiming struct {
	BaseUs   des.Time
	JitterUs [3]des.Time // indexed by replica: 0 = reference, 1, 2
	// PerKBUs is charged per kilobyte of the stage's input tokens, over
	// all its inputs.
	PerKBUs des.Time
}

// work returns the kpn.WorkModel for a replica instance.
func (s StageTiming) work(replica int) kpn.WorkModel {
	return kpn.WorkModel{BaseUs: s.BaseUs, PerKBUs: s.PerKBUs, JitterUs: s.JitterUs[replica]}
}

// maxLatencyUs bounds the stage's per-token latency for a replica, for a
// nominal token size.
func (s StageTiming) maxLatencyUs(replica int, tokenBytes int) des.Time {
	return s.BaseUs + s.PerKBUs*des.Time(tokenBytes)/1024 + s.JitterUs[replica]
}

// Sink receives the consumer's tokens.
type Sink func(now des.Time, tok kpn.Token)

// chain32 frames a sequence of byte slices with u32 length prefixes, the
// container the MJPEG and H.264 producers use to pack per-strip
// bitstreams into one token.
func chain32(parts [][]byte) []byte {
	n := 0
	for _, p := range parts {
		n += 4 + len(p)
	}
	out := make([]byte, 0, n)
	var l [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(l[:], uint32(len(p)))
		out = append(out, l[:]...)
		out = append(out, p...)
	}
	return out
}

// splitChain32 reverses chain32.
func splitChain32(data []byte) ([][]byte, error) {
	var parts [][]byte
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, fmt.Errorf("apps: truncated chain header")
		}
		n := int(binary.BigEndian.Uint32(data[:4]))
		data = data[4:]
		if n > len(data) {
			return nil, fmt.Errorf("apps: chain part length %d exceeds remaining %d", n, len(data))
		}
		parts = append(parts, data[:n])
		data = data[n:]
	}
	return parts, nil
}

// pjd is shorthand for building tuples in microseconds.
func pjd(period, jitter, dist des.Time) rtc.PJD {
	return rtc.PJD{Period: period, Jitter: jitter, MinDist: dist}
}

package apps

import (
	"fmt"

	"ftpn/internal/codec/h264"
	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

// H264Config parameterizes the H.264 encoder application (the paper's
// third benchmark, §4.2): a producer streams raw frames, the critical
// subnetwork is sliceframe → encode×Slices → muxstream, and the consumer
// collects the encoded bitstream tokens.
type H264Config struct {
	Width, Height int
	Slices        int
	QP            int
	Frames        int64
	FrameCache    int

	Producer rtc.PJD
	Consumer rtc.PJD

	Slice StageTiming
	Enc   StageTiming
	Mux   StageTiming

	InCap, MidCap, OutCap int
	OutInit               int

	// Memo, when non-nil, caches the deterministic payload pipeline
	// across runs sharing the config: raw-frame synthesis, per-slice
	// encode and muxstream, whose output tokens carry their cached
	// digest to the consumer. sliceframe only subslices its input.
	// See kpn.PayloadMemo.
	Memo *kpn.PayloadMemo
}

// DefaultH264Config returns a ~30 fps encoder configuration with
// replica jitter diversity, scaled down geometrically (virtual-time
// results do not depend on pixel count).
func DefaultH264Config() H264Config {
	return H264Config{
		Width: 64, Height: 48, Slices: 2, QP: 26, Frames: 600, FrameCache: 16,
		Producer: pjd(30_000, 1_000, 30_000),
		Consumer: pjd(30_000, 1_000, 30_000),
		Slice:    StageTiming{BaseUs: 400, JitterUs: [3]des.Time{400, 800, 2_500}},
		Enc:      StageTiming{BaseUs: 9_000, PerKBUs: 150, JitterUs: [3]des.Time{1_500, 3_000, 12_000}},
		Mux:      StageTiming{BaseUs: 400, JitterUs: [3]des.Time{400, 1_200, 4_000}},
		InCap:    4, MidCap: 4, OutCap: 8, OutInit: 3,
	}
}

// Validate reports whether the configuration is usable.
func (cfg H264Config) Validate() error {
	if cfg.Slices < 1 {
		return fmt.Errorf("apps: H264 needs at least one slice, got %d", cfg.Slices)
	}
	if cfg.Width%4 != 0 || cfg.Height%(4*cfg.Slices) != 0 {
		return fmt.Errorf("apps: H264 geometry %dx%d not divisible into %d 4-aligned slices",
			cfg.Width, cfg.Height, cfg.Slices)
	}
	if cfg.QP < 0 || cfg.QP > h264.MaxQP {
		return fmt.Errorf("apps: H264 QP %d outside [0,%d]", cfg.QP, h264.MaxQP)
	}
	if cfg.FrameCache < 1 {
		return fmt.Errorf("apps: H264 frame cache must be positive")
	}
	if err := cfg.Producer.Validate(); err != nil {
		return err
	}
	return cfg.Consumer.Validate()
}

// RawBytes returns the raw-frame token size.
func (cfg H264Config) RawBytes() int { return cfg.Width * cfg.Height }

// rawFrame synthesizes deterministic raw frame i.
func (cfg H264Config) rawFrame(i int64) []byte {
	pix := make([]byte, cfg.RawBytes())
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			v := uint64(x+y)*5 + uint64(i)*31
			n := uint64(x)*2654435761 ^ uint64(y)*40503 ^ uint64(i)*11400714819323198485
			pix[y*cfg.Width+x] = byte((v + n%17) % 256)
		}
	}
	return pix
}

// H264Network builds the reference process network.
func H264Network(cfg H264Config, sink Sink) (*kpn.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cache := make(map[int64][]byte, cfg.FrameCache)
	gen := cfg.Memo.Gen("h264/raw", func(i int64) []byte {
		key := i % int64(cfg.FrameCache)
		if b, ok := cache[key]; ok {
			return b
		}
		b := cfg.rawFrame(key)
		cache[key] = b
		return b
	})
	sliceH := cfg.Height / cfg.Slices

	procs := []kpn.ProcessSpec{
		{Name: "producer", Role: kpn.RoleProducer, New: func(int) kpn.Behavior {
			return kpn.Producer(cfg.Producer, 31, cfg.Frames, gen)
		}},
		{Name: "sliceframe", Role: kpn.RoleCritical, New: func(r int) kpn.Behavior {
			return kpn.Stage(cfg.Slice.work(r), 32+int64(r), 1, cfg.Slices, func(_ int64, in, out []kpn.Token) {
				tok := in[0]
				if len(tok.Payload) != cfg.RawBytes() {
					panic(fmt.Sprintf("apps: sliceframe raw size %d", len(tok.Payload)))
				}
				for s := range out {
					out[s] = kpn.Token{Seq: tok.Seq, Payload: tok.Payload[s*sliceH*cfg.Width : (s+1)*sliceH*cfg.Width]}
				}
			})
		}},
	}
	chans := []kpn.ChannelSpec{
		{Name: "F_in", From: "producer", To: "sliceframe", Capacity: cfg.InCap, TokenBytes: cfg.RawBytes()},
	}
	for s := 0; s < cfg.Slices; s++ {
		en := fmt.Sprintf("encode%d", s+1)
		procs = append(procs, kpn.ProcessSpec{Name: en, Role: kpn.RoleCritical, New: func(r int) kpn.Behavior {
			return kpn.MemoTransform(cfg.Enc.work(r), 33+int64(s), cfg.Memo, "h264/"+en, func(i int64, payload []byte) []byte {
				data, err := h264.Encode(payload, cfg.Width, sliceH, cfg.QP)
				if err != nil {
					panic(fmt.Sprintf("apps: H264 encode: %v", err))
				}
				return data
			})
		}})
		chans = append(chans,
			kpn.ChannelSpec{Name: fmt.Sprintf("F_r%d", s+1), From: "sliceframe", To: en,
				Capacity: cfg.MidCap, TokenBytes: cfg.RawBytes() / cfg.Slices},
			kpn.ChannelSpec{Name: fmt.Sprintf("F_e%d", s+1), From: en, To: "muxstream",
				Capacity: cfg.MidCap, TokenBytes: cfg.RawBytes() / (4 * cfg.Slices)},
		)
	}
	procs = append(procs,
		kpn.ProcessSpec{Name: "muxstream", Role: kpn.RoleCritical, New: func(r int) kpn.Behavior {
			return kpn.MemoStage(cfg.Mux.work(r), 34+int64(r), cfg.Memo, "h264/muxstream", func(_ int64, ins [][]byte) []byte {
				return chain32(ins)
			})
		}},
		kpn.ProcessSpec{Name: "consumer", Role: kpn.RoleConsumer, New: func(int) kpn.Behavior {
			return kpn.Consumer(cfg.Consumer, 35, cfg.Frames, func(now des.Time, tok kpn.Token) {
				if sink != nil {
					sink(now, tok)
				}
			})
		}},
	)
	chans = append(chans, kpn.ChannelSpec{
		Name: "F_out", From: "muxstream", To: "consumer",
		Capacity: cfg.OutCap, InitialTokens: cfg.OutInit, TokenBytes: cfg.RawBytes() / 4,
	})
	return &kpn.Network{Name: "h264-encoder", Procs: procs, Chans: chans}, nil
}

// ReplicaOutputModel returns a conservative envelope of replica r's
// encoded-bitstream output stream.
func (cfg H264Config) ReplicaOutputModel(r int) rtc.PJD {
	raw := cfg.RawBytes()
	j := cfg.Producer.Jitter +
		cfg.Slice.maxLatencyUs(r, raw) +
		cfg.Enc.maxLatencyUs(r, raw/cfg.Slices) +
		cfg.Mux.maxLatencyUs(r, raw/4) +
		5_000
	return rtc.PJD{Period: cfg.Producer.Period, Jitter: j}
}

// ReplicaInputModel returns a conservative envelope of replica r's
// consumption from the replicator.
func (cfg H264Config) ReplicaInputModel(r int) rtc.PJD {
	j := cfg.Producer.Jitter + cfg.Slice.maxLatencyUs(r, cfg.RawBytes()) +
		cfg.Enc.maxLatencyUs(r, cfg.RawBytes()/cfg.Slices) + 5_000
	return rtc.PJD{Period: cfg.Producer.Period, Jitter: j}
}

package apps

import (
	"fmt"

	"ftpn/internal/codec/mjpeg"
	"ftpn/internal/des"
	"ftpn/internal/kpn"
	"ftpn/internal/rtc"
)

// MJPEGConfig parameterizes the fault-tolerant MJPEG decoder (Figure 2,
// top): a producer streams encoded frames (one token per frame, split
// into independently decodable horizontal strips), the critical
// subnetwork is splitstream → decode×Strips → mergeframe, and the
// consumer displays decoded frames.
type MJPEGConfig struct {
	Width, Height int
	Strips        int
	Quality       int
	Frames        int64 // tokens to produce; <= 0 means unbounded
	FrameCache    int   // distinct synthetic frames cycled by the producer

	Producer rtc.PJD // encoded-frame inter-arrival model (Table 1: <30ms, 2ms, 30ms>)
	Consumer rtc.PJD // decoded-frame consumption model

	Split StageTiming
	Dec   StageTiming
	Merge StageTiming

	// Channel capacities of the reference network (before eq. 3 sizing
	// of the duplicated system).
	InCap, MidCap, OutCap int
	OutInit               int

	// Memo, when non-nil, caches the deterministic payload pipeline
	// (frame encode, per-strip decode) across runs sharing the config;
	// see kpn.PayloadMemo. Timing and output streams are unaffected.
	// mergeframe's frames are not cached: that would keep a second copy
	// of every decoded frame next to its strips. mergeframe joins the
	// strips through kpn.PayloadMemo.Join, which caches only the merged
	// frame's digest, so a warm run hashes no frame bytes.
	Memo *kpn.PayloadMemo
}

// DefaultMJPEGConfig returns the paper's Table 1 parameters: ~30 fps
// encoded input with 2 ms jitter, replica design diversity of 5 ms vs
// 30 ms jitter, and a consumer at the same frame rate. The default
// frame geometry is scaled down from 320×240 so that simulations stay
// fast; virtual-time results are unaffected by pixel count (see
// EXPERIMENTS.md). Set Width, Height = 320, 240 for full-scale tokens.
func DefaultMJPEGConfig() MJPEGConfig {
	return MJPEGConfig{
		Width: 64, Height: 48, Strips: 3, Quality: 70, Frames: 600, FrameCache: 24,
		Producer: pjd(30_000, 2_000, 30_000),
		Consumer: pjd(30_000, 2_000, 30_000),
		Split:    StageTiming{BaseUs: 300, JitterUs: [3]des.Time{500, 700, 2_000}},
		Dec:      StageTiming{BaseUs: 5_000, PerKBUs: 100, JitterUs: [3]des.Time{2_000, 3_000, 20_000}},
		Merge:    StageTiming{BaseUs: 300, JitterUs: [3]des.Time{500, 1_300, 6_000}},
		InCap:    4, MidCap: 4, OutCap: 8, OutInit: 3,
	}
}

// Validate reports whether the configuration is usable.
func (cfg MJPEGConfig) Validate() error {
	if cfg.Strips < 1 {
		return fmt.Errorf("apps: MJPEG needs at least one strip, got %d", cfg.Strips)
	}
	if cfg.Height%(8*cfg.Strips) != 0 || cfg.Width%8 != 0 {
		return fmt.Errorf("apps: MJPEG geometry %dx%d not divisible into %d 8-aligned strips",
			cfg.Width, cfg.Height, cfg.Strips)
	}
	if cfg.FrameCache < 1 {
		return fmt.Errorf("apps: MJPEG frame cache must be positive")
	}
	if err := cfg.Producer.Validate(); err != nil {
		return err
	}
	return cfg.Consumer.Validate()
}

// DecodedBytes returns the decoded-frame token size (the paper's
// 76.8 KB at full scale).
func (cfg MJPEGConfig) DecodedBytes() int { return cfg.Width * cfg.Height }

// encodeFrameStrips encodes synthetic frame i as independently decodable
// horizontal strips packed with chain32.
func (cfg MJPEGConfig) encodeFrameStrips(i int64) []byte {
	stripH := cfg.Height / cfg.Strips
	parts := make([][]byte, cfg.Strips)
	full := mjpeg.TestFrame(cfg.Width, cfg.Height, i)
	for s := 0; s < cfg.Strips; s++ {
		strip := mjpeg.NewFrame(cfg.Width, stripH)
		copy(strip.Pix, full.Pix[s*stripH*cfg.Width:(s+1)*stripH*cfg.Width])
		enc, err := mjpeg.Encode(strip, cfg.Quality)
		if err != nil {
			panic(fmt.Sprintf("apps: MJPEG producer encode: %v", err))
		}
		parts[s] = enc
	}
	return chain32(parts)
}

// MJPEGNetwork builds the reference process network. sink (may be nil)
// receives each decoded frame at the consumer.
func MJPEGNetwork(cfg MJPEGConfig, sink Sink) (*kpn.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cache := make(map[int64][]byte, cfg.FrameCache)
	gen := cfg.Memo.Gen("mjpeg/frames", func(i int64) []byte {
		key := i % int64(cfg.FrameCache)
		if b, ok := cache[key]; ok {
			return b
		}
		b := cfg.encodeFrameStrips(key)
		cache[key] = b
		return b
	})

	procs := []kpn.ProcessSpec{
		{Name: "producer", Role: kpn.RoleProducer, New: func(int) kpn.Behavior {
			return kpn.Producer(cfg.Producer, 11, cfg.Frames, gen)
		}},
		{Name: "splitstream", Role: kpn.RoleCritical, New: func(r int) kpn.Behavior {
			return splitStreamBehavior(cfg, r)
		}},
	}
	chans := []kpn.ChannelSpec{
		{Name: "F_in", From: "producer", To: "splitstream", Capacity: cfg.InCap, TokenBytes: 12 * 1024},
	}
	for s := 0; s < cfg.Strips; s++ {
		dn := fmt.Sprintf("decode%d", s+1)
		procs = append(procs, kpn.ProcessSpec{Name: dn, Role: kpn.RoleCritical, New: func(r int) kpn.Behavior {
			return kpn.MemoTransform(cfg.Dec.work(r), 100+int64(s), cfg.Memo, "mjpeg/"+dn, func(i int64, payload []byte) []byte {
				f, err := mjpeg.Decode(payload)
				if err != nil {
					panic(fmt.Sprintf("apps: MJPEG decode: %v", err))
				}
				return f.Pix
			})
		}})
		chans = append(chans,
			kpn.ChannelSpec{Name: fmt.Sprintf("F_s%d", s+1), From: "splitstream", To: dn,
				Capacity: cfg.MidCap, TokenBytes: 4 * 1024},
			kpn.ChannelSpec{Name: fmt.Sprintf("F_d%d", s+1), From: dn, To: "mergeframe",
				Capacity: cfg.MidCap, TokenBytes: cfg.DecodedBytes() / cfg.Strips},
		)
	}
	procs = append(procs,
		kpn.ProcessSpec{Name: "mergeframe", Role: kpn.RoleCritical, New: func(r int) kpn.Behavior {
			return mergeFrameBehavior(cfg, r)
		}},
		kpn.ProcessSpec{Name: "consumer", Role: kpn.RoleConsumer, New: func(int) kpn.Behavior {
			return kpn.Consumer(cfg.Consumer, 13, cfg.Frames, func(now des.Time, tok kpn.Token) {
				if sink != nil {
					sink(now, tok)
				}
			})
		}},
	)
	chans = append(chans, kpn.ChannelSpec{
		Name: "F_out", From: "mergeframe", To: "consumer",
		Capacity: cfg.OutCap, InitialTokens: cfg.OutInit, TokenBytes: cfg.DecodedBytes(),
	})
	return &kpn.Network{Name: "mjpeg-decoder", Procs: procs, Chans: chans}, nil
}

// splitStreamBehavior parses one encoded-frame token into per-strip
// tokens, one per decoder output.
func splitStreamBehavior(cfg MJPEGConfig, replica int) kpn.Behavior {
	return kpn.Stage(cfg.Split.work(replica), 17+int64(replica), 1, cfg.Strips, func(_ int64, in, out []kpn.Token) {
		parts, err := splitChain32(in[0].Payload)
		if err != nil || len(parts) != len(out) {
			panic(fmt.Sprintf("apps: splitstream frame %d: %v (%d parts)", in[0].Seq, err, len(parts)))
		}
		for s := range out {
			out[s] = kpn.Token{Seq: in[0].Seq, Payload: parts[s]}
		}
	})
}

// mergeFrameBehavior reassembles strips into one decoded frame.
func mergeFrameBehavior(cfg MJPEGConfig, replica int) kpn.Behavior {
	return kpn.Stage(cfg.Merge.work(replica), 19+int64(replica), cfg.Strips, 1, func(i int64, in, out []kpn.Token) {
		n := 0
		for _, tok := range in {
			n += tok.Size()
		}
		if n != cfg.DecodedBytes() {
			panic(fmt.Sprintf("apps: mergeframe %d assembled %d bytes, want %d", i, n, cfg.DecodedBytes()))
		}
		out[0] = cfg.Memo.Join("mjpeg/mergeframe", in[0].Seq, 0, in)
	})
}

// ReplicaOutputModel returns a conservative PJD envelope for replica r's
// decoded-frame output stream: the producer's period with jitter widened
// by every stage's worst-case latency. Conservative means the envelope
// always contains the actual stream, so eq. 4/5 sizing from it is safe.
func (cfg MJPEGConfig) ReplicaOutputModel(r int) rtc.PJD {
	encTok := 12 * 1024
	decTok := cfg.DecodedBytes()
	j := cfg.Producer.Jitter +
		cfg.Split.maxLatencyUs(r, encTok) +
		cfg.Dec.maxLatencyUs(r, encTok/cfg.Strips) +
		cfg.Merge.maxLatencyUs(r, decTok) +
		5_000 // transfer and scheduling margin
	return rtc.PJD{Period: cfg.Producer.Period, Jitter: j}
}

// ReplicaInputModel returns a conservative PJD envelope for replica r's
// consumption from the replicator: it consumes at the producer's rate,
// delayed at worst by the first stage's latency (plus margin).
func (cfg MJPEGConfig) ReplicaInputModel(r int) rtc.PJD {
	j := cfg.Producer.Jitter + cfg.Split.maxLatencyUs(r, 12*1024) + cfg.Dec.maxLatencyUs(r, 4*1024) + 5_000
	return rtc.PJD{Period: cfg.Producer.Period, Jitter: j}
}

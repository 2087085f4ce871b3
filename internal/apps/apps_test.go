package apps

import (
	"bytes"
	"hash/fnv"
	"slices"
	"testing"

	"ftpn/internal/des"
	"ftpn/internal/ft"
	"ftpn/internal/kpn"
)

func TestChain32RoundTrip(t *testing.T) {
	parts := [][]byte{{1, 2, 3}, {}, {9}, bytes.Repeat([]byte{7}, 300)}
	got, err := splitChain32(chain32(parts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("got %d parts, want %d", len(got), len(parts))
	}
	for i := range parts {
		if !bytes.Equal(got[i], parts[i]) {
			t.Errorf("part %d differs", i)
		}
	}
}

func TestChain32Corrupt(t *testing.T) {
	if _, err := splitChain32([]byte{0, 0}); err == nil {
		t.Error("truncated header should fail")
	}
	if _, err := splitChain32([]byte{0, 0, 0, 9, 1}); err == nil {
		t.Error("short body should fail")
	}
}

func TestMJPEGConfigValidation(t *testing.T) {
	good := DefaultMJPEGConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.Strips = 0
	if bad.Validate() == nil {
		t.Error("zero strips should fail")
	}
	bad = good
	bad.Height = 50 // not divisible into 8-aligned strips
	if bad.Validate() == nil {
		t.Error("bad geometry should fail")
	}
	bad = good
	bad.FrameCache = 0
	if bad.Validate() == nil {
		t.Error("zero cache should fail")
	}
	if paperScaleMJPEG().DecodedBytes() != 76800 {
		t.Errorf("paper-scale decoded frame = %d bytes, want 76800 (76.8 KB)", paperScaleMJPEG().DecodedBytes())
	}
}

func TestMJPEGReferenceEndToEnd(t *testing.T) {
	cfg := DefaultMJPEGConfig()
	cfg.Frames = 40
	var frames []kpn.Token
	net, err := MJPEGNetwork(cfg, func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			frames = append(frames, tok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	if _, err := net.Instantiate(k); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	if len(frames) != int(cfg.Frames)-cfg.OutInit {
		t.Fatalf("consumer saw %d produced frames, want %d", len(frames), int(cfg.Frames)-cfg.OutInit)
	}
	for _, f := range frames {
		if f.Size() != cfg.DecodedBytes() {
			t.Fatalf("decoded frame %d has %d bytes, want %d", f.Seq, f.Size(), cfg.DecodedBytes())
		}
	}
}

func TestADPCMReferenceEndToEnd(t *testing.T) {
	cfg := DefaultADPCMConfig()
	cfg.Blocks = 60
	var blocks []kpn.Token
	net, err := ADPCMNetwork(cfg, func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			blocks = append(blocks, tok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	if _, err := net.Instantiate(k); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	if len(blocks) != int(cfg.Blocks)-cfg.OutInit {
		t.Fatalf("consumer saw %d blocks, want %d", len(blocks), int(cfg.Blocks)-cfg.OutInit)
	}
	// Reconstructed block is 3 KB PCM and approximates the original.
	orig := bytesToPCM(cfg.pcmBlock(0))
	got := bytesToPCM(blocks[0].Payload)
	if len(got) != len(orig) {
		t.Fatalf("block has %d samples, want %d", len(got), len(orig))
	}
	var worst int
	for i := 256; i < len(orig); i++ {
		d := int(orig[i]) - int(got[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 3000 {
		t.Errorf("ADPCM reconstruction error %d too high", worst)
	}
}

func TestADPCMConfigValidation(t *testing.T) {
	bad := DefaultADPCMConfig()
	bad.SamplesPerBlock = 3
	if bad.Validate() == nil {
		t.Error("odd samples should fail")
	}
	if DefaultADPCMConfig().BlockBytes() != 3000 {
		t.Errorf("block = %d bytes, want 3000 (3 KB)", DefaultADPCMConfig().BlockBytes())
	}
}

func TestH264ReferenceEndToEnd(t *testing.T) {
	cfg := DefaultH264Config()
	cfg.Frames = 40
	var toks []kpn.Token
	net, err := H264Network(cfg, func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			toks = append(toks, tok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	if _, err := net.Instantiate(k); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	if len(toks) != int(cfg.Frames)-cfg.OutInit {
		t.Fatalf("consumer saw %d tokens, want %d", len(toks), int(cfg.Frames)-cfg.OutInit)
	}
	// Each token is a chain of per-slice bitstreams that decode back to
	// the raw slices.
	parts, err := splitChain32(toks[0].Payload)
	if err != nil || len(parts) != cfg.Slices {
		t.Fatalf("mux token: %v, %d parts", err, len(parts))
	}
}

func TestH264ConfigValidation(t *testing.T) {
	bad := DefaultH264Config()
	bad.QP = 99
	if bad.Validate() == nil {
		t.Error("bad QP should fail")
	}
	bad = DefaultH264Config()
	bad.Slices = 5 // 48 not divisible by 4*5
	if bad.Validate() == nil {
		t.Error("bad slicing should fail")
	}
}

// runRefAndDup runs the reference and duplicated instances of a network
// builder and compares consumer streams (produced tokens only).
func runRefAndDup(t *testing.T, build func(sink Sink) (*kpn.Network, error), cfg ft.BuildConfig) *ft.System {
	t.Helper()
	var ref, dup []kpn.Token
	refNet, err := build(func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			ref = append(ref, tok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k1 := des.NewKernel()
	if _, err := refNet.Instantiate(k1); err != nil {
		t.Fatal(err)
	}
	k1.Run(0)
	k1.Shutdown()

	dupNet, err := build(func(now des.Time, tok kpn.Token) {
		if tok.Seq > 0 {
			dup = append(dup, tok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k2 := des.NewKernel()
	sys, err := ft.Build(k2, dupNet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k2.Run(0)
	k2.Shutdown()

	if len(ref) != len(dup) {
		t.Fatalf("stream lengths: ref %d, dup %d", len(ref), len(dup))
	}
	for i := range ref {
		if ref[i].Seq != dup[i].Seq || ref[i].Hash() != dup[i].Hash() {
			t.Fatalf("token %d differs between reference and duplicated runs", i)
		}
	}
	return sys
}

func TestMJPEGDuplicatedEquivalentFaultFree(t *testing.T) {
	cfg := DefaultMJPEGConfig()
	cfg.Frames = 60
	sys := runRefAndDup(t, func(sink Sink) (*kpn.Network, error) { return MJPEGNetwork(cfg, sink) },
		ft.BuildConfig{
			ReplicatorCaps: map[string][2]int{"F_in": {6, 8}},
			SelectorCaps:   map[string][2]int{"F_out": {8, 12}},
			SelectorInits:  map[string][2]int{"F_out": {3, 3}},
			SelectorD:      map[string]int64{"F_out": 6},
		})
	if len(sys.Faults) != 0 {
		t.Errorf("fault-free MJPEG run flagged: %v", sys.Faults)
	}
}

func TestADPCMDuplicatedEquivalentFaultFree(t *testing.T) {
	cfg := DefaultADPCMConfig()
	cfg.Blocks = 80
	sys := runRefAndDup(t, func(sink Sink) (*kpn.Network, error) { return ADPCMNetwork(cfg, sink) },
		ft.BuildConfig{
			ReplicatorCaps: map[string][2]int{"F_in": {4, 6}},
			SelectorCaps:   map[string][2]int{"F_out": {8, 10}},
			SelectorInits:  map[string][2]int{"F_out": {4, 4}},
			SelectorD:      map[string]int64{"F_out": 5},
		})
	if len(sys.Faults) != 0 {
		t.Errorf("fault-free ADPCM run flagged: %v", sys.Faults)
	}
}

func TestH264DuplicatedEquivalentFaultFree(t *testing.T) {
	cfg := DefaultH264Config()
	cfg.Frames = 60
	sys := runRefAndDup(t, func(sink Sink) (*kpn.Network, error) { return H264Network(cfg, sink) },
		ft.BuildConfig{
			ReplicatorCaps: map[string][2]int{"F_in": {6, 8}},
			SelectorCaps:   map[string][2]int{"F_out": {8, 12}},
			SelectorInits:  map[string][2]int{"F_out": {3, 3}},
			SelectorD:      map[string]int64{"F_out": 6},
		})
	if len(sys.Faults) != 0 {
		t.Errorf("fault-free H264 run flagged: %v", sys.Faults)
	}
}

// TestReplicaOutputModelEnvelope checks that the conservative PJD
// envelope really contains the observed replica output stream.
func TestReplicaOutputModelEnvelope(t *testing.T) {
	cfg := DefaultADPCMConfig()
	cfg.Blocks = 120
	net, err := ADPCMNetwork(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	sys, err := ft.Build(k, net, ft.BuildConfig{
		SelectorCaps:  map[string][2]int{"F_out": {16, 16}},
		SelectorInits: map[string][2]int{"F_out": {4, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	k.Shutdown()
	sel := sys.Selectors["F_out"]
	// Writes per interface over the whole run must respect the upper
	// envelope of the output model (weak check via totals).
	for r := 1; r <= 2; r++ {
		model := cfg.ReplicaOutputModel(r)
		span := des.Time(cfg.Blocks) * cfg.Producer.Period * 2
		upper := model.Upper().Eval(span)
		if sel.Writes(r) > upper {
			t.Errorf("replica %d wrote %d tokens, above envelope %d", r, sel.Writes(r), upper)
		}
	}
}

// TestMJPEGWarmRunHashesNothing: a second fault-free MJPEG run on a warm
// payload memo hashes no payload bytes — the decode strips' digests are
// never needed and every merged frame reuses the join digest the first
// run hashed — and delivers the same stream, each frame hashing to its
// bytes.
func TestMJPEGWarmRunHashesNothing(t *testing.T) {
	cfg := DefaultMJPEGConfig()
	cfg.Frames = 40
	cfg.Memo = kpn.NewPayloadMemo()
	run := func() (seqs []int64, sums []uint64) {
		net, err := MJPEGNetwork(cfg, func(now des.Time, tok kpn.Token) {
			if tok.Seq <= 0 {
				return
			}
			h := fnv.New64a()
			h.Write(tok.Payload)
			if tok.Hash() != h.Sum64() {
				t.Fatalf("frame %d: Hash differs from the hash of its bytes", tok.Seq)
			}
			seqs, sums = append(seqs, tok.Seq), append(sums, tok.Hash())
		})
		if err != nil {
			t.Fatal(err)
		}
		k := des.NewKernel()
		if _, err := net.Instantiate(k); err != nil {
			t.Fatal(err)
		}
		k.Run(0)
		k.Shutdown()
		return seqs, sums
	}
	coldSeqs, coldSums := run()
	cold := cfg.Memo.Stats()
	warmSeqs, warmSums := run()
	warm := cfg.Memo.Stats()
	if want := int(cfg.Frames) - cfg.OutInit; len(coldSeqs) != want {
		t.Fatalf("consumer saw %d frames, want %d", len(coldSeqs), want)
	}
	if !slices.Equal(coldSeqs, warmSeqs) || !slices.Equal(coldSums, warmSums) {
		t.Fatal("the warm run's stream differs from the cold run's")
	}
	if cold.Hashed < int64(len(coldSeqs)) || cold.JoinsReused != 0 {
		t.Fatalf("cold run Stats = %+v, want a join digest hashed per merged frame (>= %d) and none reused", cold, len(coldSeqs))
	}
	if hashed := warm.Hashed - cold.Hashed; hashed != 0 {
		t.Fatalf("warm run hashed %d digests, want 0", hashed)
	}
	if reused := warm.JoinsReused - cold.JoinsReused; reused != cold.Hashed {
		t.Fatalf("warm run reused %d join digests, want one per merged frame (%d)", reused, cold.Hashed)
	}
}

// paperScaleMJPEG returns the full-scale geometry of the paper: 320×240
// frames (~10 KB encoded, 76.8 KB decoded).
func paperScaleMJPEG() MJPEGConfig {
	cfg := DefaultMJPEGConfig()
	cfg.Width, cfg.Height = 320, 240
	return cfg
}

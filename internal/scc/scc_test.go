package scc

import (
	"testing"
	"testing/quick"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TileFreqMHz != 533 || cfg.RouterFreqMHz != 800 || cfg.MemFreqMHz != 800 {
		t.Errorf("boot clocks = %d/%d/%d, want 533/800/800",
			cfg.TileFreqMHz, cfg.RouterFreqMHz, cfg.MemFreqMHz)
	}
	if cfg.L2Enabled || cfg.Interrupts {
		t.Error("paper boots with L2 and interrupts off")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.TileFreqMHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tile frequency should be invalid")
	}
	bad = DefaultConfig()
	bad.Cost.PerByteNs = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative cost should be invalid")
	}
	bad = DefaultConfig()
	bad.Cost = CostModel{}
	if err := bad.Validate(); err == nil {
		t.Error("all-zero cost model should be invalid")
	}
	if _, err := New(bad); err == nil {
		t.Error("New with invalid config should fail")
	}
}

func TestTopology(t *testing.T) {
	ch, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if NumCores != 48 || NumTiles != 24 {
		t.Fatalf("SCC is 48 cores on 24 tiles, constants say %d/%d", NumCores, NumTiles)
	}
	// Cores 2t and 2t+1 share tile t.
	for tid := 0; tid < NumTiles; tid++ {
		a, b := ch.Core(2*tid), ch.Core(2*tid+1)
		if a.Tile().ID != tid || b.Tile().ID != tid {
			t.Errorf("cores %d,%d not on tile %d", a.ID, b.ID, tid)
		}
	}
	// Tile coordinates are row-major 6 wide.
	tl := ch.Tile(13)
	if tl.X != 1 || tl.Y != 2 {
		t.Errorf("tile 13 at (%d,%d), want (1,2)", tl.X, tl.Y)
	}
}

func TestCoreTileBoundsPanic(t *testing.T) {
	ch, _ := New(DefaultConfig())
	for _, fn := range []func(){
		func() { ch.Core(-1) },
		func() { ch.Core(NumCores) },
		func() { ch.Tile(-1) },
		func() { ch.Tile(NumTiles) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access should panic")
				}
			}()
			fn()
		}()
	}
}

func TestHops(t *testing.T) {
	ch, _ := New(DefaultConfig())
	sameTile := ch.Hops(ch.Core(0), ch.Core(1))
	if sameTile != 0 {
		t.Errorf("same-tile hops = %d, want 0", sameTile)
	}
	// Tile 0 (0,0) to tile 23 (5,3): 5 + 3 = 8 hops.
	if h := ch.Hops(ch.Core(0), ch.Core(47)); h != 8 {
		t.Errorf("corner-to-corner hops = %d, want 8", h)
	}
}

func TestHopsSymmetricProperty(t *testing.T) {
	ch, _ := New(DefaultConfig())
	prop := func(a, b uint8) bool {
		ca, cb := ch.Core(int(a)%NumCores), ch.Core(int(b)%NumCores)
		h := ch.Hops(ca, cb)
		return h == ch.Hops(cb, ca) && h >= 0 && h <= MeshWidth-1+MeshHeight-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTransferTime(t *testing.T) {
	ch, _ := New(DefaultConfig())
	a, b := ch.Core(0), ch.Core(2) // adjacent tiles, 1 hop
	// 3 KB = 1 chunk: 2000 + 50 + 3072 ns = 5122 ns -> 6 µs.
	if got := ch.TransferTime(a, b, 3072); got != 6 {
		t.Errorf("TransferTime(3KB,1hop) = %d, want 6", got)
	}
	// 10 KB encoded MJPEG frame: 4 chunks.
	got10k := ch.TransferTime(a, b, 10*1024)
	// 4*(2000+50) + 10240 = 18440 ns -> 19 µs.
	if got10k != 19 {
		t.Errorf("TransferTime(10KB) = %d, want 19", got10k)
	}
	// Transfers are monotone in size and hops.
	if ch.TransferTime(a, b, 76800) <= got10k {
		t.Error("larger message should cost more")
	}
	far := ch.Core(47)
	if ch.TransferTime(a, far, 10*1024) <= got10k {
		t.Error("longer route should cost more")
	}
	// Zero-byte control message still costs at least a tick.
	if ch.TransferTime(a, b, 0) < 1 {
		t.Error("zero-byte transfer must cost at least 1 tick")
	}
	// Message timing stays far below the MJPEG frame period (30 ms), as
	// §4.1 claims for MPB-routed traffic.
	if decoded := ch.TransferTime(a, b, 76800); decoded > 1000 {
		t.Errorf("decoded-frame transfer = %d µs, want well under 1 ms", decoded)
	}
}

func TestTransferTimeNegativePanics(t *testing.T) {
	ch, _ := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("negative size should panic")
		}
	}()
	ch.TransferTime(ch.Core(0), ch.Core(1), -1)
}

func TestMapPipeline(t *testing.T) {
	ch, _ := New(DefaultConfig())
	cores, err := ch.MapPipeline(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 10 {
		t.Fatalf("mapped %d cores, want 10", len(cores))
	}
	// One process per tile: all tiles distinct.
	seen := make(map[int]bool)
	for _, c := range cores {
		if seen[c.Tile().ID] {
			t.Errorf("tile %d used twice", c.Tile().ID)
		}
		seen[c.Tile().ID] = true
	}
	// Consecutive stages adjacent: exactly 1 hop.
	for i := 0; i+1 < len(cores); i++ {
		if h := ch.Hops(cores[i], cores[i+1]); h != 1 {
			t.Errorf("stages %d-%d are %d hops apart, want 1", i, i+1, h)
		}
	}
}

func TestMapPipelineBounds(t *testing.T) {
	ch, _ := New(DefaultConfig())
	if _, err := ch.MapPipeline(0); err == nil {
		t.Error("mapping 0 processes should fail")
	}
	if _, err := ch.MapPipeline(NumTiles + 1); err == nil {
		t.Error("mapping more processes than tiles should fail")
	}
	if cores, err := ch.MapPipeline(NumTiles); err != nil || len(cores) != NumTiles {
		t.Errorf("full-chip mapping failed: %v", err)
	}
}

func TestTransferTimeChunkedDDRPenalty(t *testing.T) {
	ch, _ := New(DefaultConfig())
	a, b := ch.Core(0), ch.Core(2)
	const msg = 24 * 1024
	mpb := ch.TransferTimeChunked(a, b, msg, MaxChunkBytes)
	ddr := ch.TransferTimeChunked(a, b, msg, 8*1024) // > 3 KB: DDR3 path
	if ddr <= mpb {
		t.Errorf("DDR-path transfer (%d) should cost more than MPB chunks (%d)", ddr, mpb)
	}
	// Within the MPB limit, fewer chunks means less overhead.
	small := ch.TransferTimeChunked(a, b, msg, 1024)
	if small <= mpb {
		t.Errorf("1KB chunks (%d) should cost more sync overhead than 3KB chunks (%d)", small, mpb)
	}
}

func TestTransferTimeChunkedValidation(t *testing.T) {
	ch, _ := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("zero chunk size should panic")
		}
	}()
	ch.TransferTimeChunked(ch.Core(0), ch.Core(1), 100, 0)
}

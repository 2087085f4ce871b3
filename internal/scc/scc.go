// Package scc models the Intel Single-chip Cloud Computer (SCC), the
// 48-core experimental many-core processor the paper validates on
// (Howard et al., ISSCC 2010). The model reproduces the aspects of the
// platform the experiments depend on:
//
//   - the 6×4 mesh of 24 tiles with two IA-32 cores per tile,
//   - XY dimension-ordered routing between tile routers, priced by hop
//     count,
//   - per-tile 16 KB message-passing buffers (MPBs) and the iRCCE-style
//     chunked transfer discipline (chunks of at most 3 KB so messages are
//     routed exclusively via the MPBs, never via DDR3 — paper §4.1),
//   - the paper's baremetal boot parameters: 533 MHz tiles, 800 MHz
//     routers, 800 MHz DDR3, L2 caches off, interrupts off.
//
// Timing is virtual (package des): every core reads the one simulated
// clock, which stands in for the per-core time-stamp counters the paper
// synchronizes at boot. The transfer-cost model is documented
// on CostModel and calibrated to published SCC measurements (~1 µs/KB
// effective MPB bandwidth plus per-chunk synchronization overhead).
package scc

import "fmt"

// Mesh geometry and per-tile resources of the physical SCC.
const (
	MeshWidth    = 6 // tiles per row
	MeshHeight   = 4 // tile rows
	NumTiles     = MeshWidth * MeshHeight
	CoresPerTile = 2
	NumCores     = NumTiles * CoresPerTile

	// MaxChunkBytes is the largest message fragment the iRCCE-style layer
	// sends at once; the paper keeps chunks at or below 3 KB so that all
	// traffic stays in the MPBs.
	MaxChunkBytes = 3 * 1024
)

// Config holds the chip boot parameters. The zero value is invalid; use
// DefaultConfig for the paper's settings.
type Config struct {
	TileFreqMHz   int  // core/tile clock
	RouterFreqMHz int  // mesh router clock
	MemFreqMHz    int  // DDR3 clock
	L2Enabled     bool // the paper boots with all L2 caches off
	Interrupts    bool // the paper boots with interrupts disabled
	Cost          CostModel
}

// DefaultConfig returns the boot parameters used in the paper's
// experiments: tile 533 MHz, router 800 MHz, DDR3 800 MHz, L2 caches
// switched off, all interrupts disabled.
func DefaultConfig() Config {
	return Config{
		TileFreqMHz:   533,
		RouterFreqMHz: 800,
		MemFreqMHz:    800,
		L2Enabled:     false,
		Interrupts:    false,
		Cost:          DefaultCostModel(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TileFreqMHz <= 0 || c.RouterFreqMHz <= 0 || c.MemFreqMHz <= 0 {
		return fmt.Errorf("scc: clock frequencies must be positive: tile=%d router=%d mem=%d",
			c.TileFreqMHz, c.RouterFreqMHz, c.MemFreqMHz)
	}
	return c.Cost.Validate()
}

// Tile is one of the 24 mesh tiles: two cores, a router and an MPB.
type Tile struct {
	ID   int // 0..23, row-major
	X, Y int // mesh coordinates: X in 0..5, Y in 0..3
}

// Core is one of the 48 IA-32 cores.
type Core struct {
	ID   int // 0..47; cores 2t and 2t+1 live on tile t
	tile *Tile
}

// Tile returns the tile the core resides on.
func (c *Core) Tile() *Tile { return c.tile }

// Chip is an SCC instance.
type Chip struct {
	cfg   Config
	tiles [NumTiles]*Tile
	cores [NumCores]*Core
}

// New builds an SCC chip with the given boot parameters.
func New(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch := &Chip{cfg: cfg}
	for t := 0; t < NumTiles; t++ {
		ch.tiles[t] = &Tile{ID: t, X: t % MeshWidth, Y: t / MeshWidth}
	}
	for c := 0; c < NumCores; c++ {
		ch.cores[c] = &Core{ID: c, tile: ch.tiles[c/CoresPerTile]}
	}
	return ch, nil
}

// Config returns the chip's boot parameters.
func (ch *Chip) Config() Config { return ch.cfg }

// Core returns core id (0..47).
func (ch *Chip) Core(id int) *Core {
	if id < 0 || id >= NumCores {
		panic(fmt.Sprintf("scc: core id %d out of range [0,%d)", id, NumCores))
	}
	return ch.cores[id]
}

// Tile returns tile id (0..23).
func (ch *Chip) Tile(id int) *Tile {
	if id < 0 || id >= NumTiles {
		panic(fmt.Sprintf("scc: tile id %d out of range [0,%d)", id, NumTiles))
	}
	return ch.tiles[id]
}

// Hops returns the XY-routed hop count between the tiles of two cores.
// Cores on the same tile communicate through the local MPB with zero
// router hops.
func (ch *Chip) Hops(from, to *Core) int {
	dx := from.tile.X - to.tile.X
	if dx < 0 {
		dx = -dx
	}
	dy := from.tile.Y - to.tile.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

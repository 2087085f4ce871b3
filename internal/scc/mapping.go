package scc

import "fmt"

// MapPipeline places n communicating processes on n distinct tiles (one
// process per tile, as the paper maps them) such that consecutive
// pipeline stages sit on adjacent tiles and their XY routes do not cross:
// tiles are visited in a serpentine (boustrophedon) order through the
// mesh, which keeps every stage-to-stage route a single hop and removes
// router cross-traffic — the low-contention mapping of Zimmer et al.
// that §4.1 cites. Core 0 of each chosen tile is returned.
func (ch *Chip) MapPipeline(n int) ([]*Core, error) {
	if n < 1 || n > NumTiles {
		return nil, fmt.Errorf("scc: cannot map %d processes one-per-tile onto %d tiles", n, NumTiles)
	}
	cores := make([]*Core, 0, n)
	for i := 0; i < n; i++ {
		y := i / MeshWidth
		x := i % MeshWidth
		if y%2 == 1 { // serpentine: odd rows run right-to-left
			x = MeshWidth - 1 - x
		}
		tile := y*MeshWidth + x
		cores = append(cores, ch.cores[tile*CoresPerTile])
	}
	return cores, nil
}

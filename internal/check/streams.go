package check

import (
	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Ref is one memory reference of one core: the unit of every stress,
// fuzz and regression stream. A stream is a []Ref; each tile plays its
// own refs in stream order, Gap cycles after the previous one retires.
type Ref struct {
	Tile  topo.Tile
	Addr  cache.Addr
	Write bool
	Gap   sim.Time
}

// splitTiles splits a stream into per-tile streams, each in stream
// order, and lists the tiles in order of first appearance — the order
// RunConcurrent starts them in.
func splitTiles(recs []Ref, tiles int) (order []topo.Tile, perTile [][]Ref) {
	perTile = make([][]Ref, tiles)
	for _, r := range recs {
		if perTile[r.Tile] == nil {
			order = append(order, r.Tile)
		}
		perTile[r.Tile] = append(perTile[r.Tile], r)
	}
	return order, perTile
}

// ConflictStream generates a small-address-space, high-conflict,
// high-write-share reference stream: many tiles hammering few blocks,
// the access pattern most likely to expose transient-race bugs.
func ConflictStream(seed uint64, tiles, blocks, refs, writePct int) []Ref {
	r := sim.NewRand(seed)
	recs := make([]Ref, 0, refs)
	for i := 0; i < refs; i++ {
		recs = append(recs, Ref{
			Tile:  topo.Tile(r.Intn(tiles)),
			Addr:  cache.Addr(r.Intn(blocks)),
			Write: r.Intn(100) < writePct,
			Gap:   sim.Time(r.Intn(4)),
		})
	}
	return recs
}

// WideStride is the block stride between the eight address ranges of a
// wide stream (see DecodeStream). Blocks 512 apart share their home
// bank and their L2, L2C$ and directory-cache set on the 16-tile stress
// chip with TinyConfig, so a wide stream overflows those sets and fills
// each home's ownership-stamp table past its purge point.
const WideStride = 512

// DecodeStream maps raw fuzzer bytes onto a reference stream: two
// bytes per record (tile + write bit, block + gap), so every input is
// valid and small mutations move single references. Bit 0x40 of the
// first byte selects the wide shape: each record's tile comes from the
// low four bits of its first byte, and the three bits above them add
// one of eight multiples of WideStride to its block. Without that bit,
// bits 0x3f of the first byte pick the tile and every block lies below
// blocks.
func DecodeStream(data []byte, tiles, blocks int) []Ref {
	wide := len(data) > 0 && data[0]&0x40 != 0
	recs := make([]Ref, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		b0, b1 := data[i], data[i+1]
		tile, block := int(b0&0x3f), int(b1&0x3f)%blocks
		if wide {
			tile = int(b0 & 0x0f)
			block += WideStride * int(b0>>4&7)
		}
		recs = append(recs, Ref{
			Tile:  topo.Tile(tile % tiles),
			Addr:  cache.Addr(block),
			Write: b0&0x80 != 0,
			Gap:   sim.Time(b1 >> 6),
		})
	}
	return recs
}

package check

import (
	"repro/internal/cache"
	"repro/internal/proto"
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

// player replays one tile's refs on eng in stream order, each Gap
// cycles after the previous one retires. Its events are (playerIssue,
// *player) pairs and retired is bound once, so a paused run holds no
// closure event; it touches only its own fields, so players on
// different executor lanes never share a write.
type player struct {
	eng     proto.Engine
	k       *sim.Kernel // the kernel of the player's tile
	refs    []Ref
	n       int      // refs retired
	last    sim.Time // clock at the last retirement
	retired func()
}

// play starts one player per tile of tiles with refs, tile t at cycle
// t%7 on kernel(t).
func play(eng proto.Engine, tiles []topo.Tile, perTile [][]Ref, kernel func(topo.Tile) *sim.Kernel) []*player {
	var ps []*player
	for _, t := range tiles {
		p := &player{eng: eng, k: kernel(t), refs: perTile[t]}
		p.retired = p.retire
		p.k.AfterArg(sim.Time(int(t)%7), playerStep, p)
		ps = append(ps, p)
	}
	return ps
}

func playerStep(a any)  { a.(*player).step() }
func playerIssue(a any) { a.(*player).issue() }

func (p *player) step() {
	if len(p.refs) == 0 {
		return
	}
	if gap := p.refs[0].Gap; gap > 0 {
		p.k.AfterArg(gap, playerIssue, p)
		return
	}
	p.issue()
}

func (p *player) issue() {
	r := p.refs[0]
	p.refs = p.refs[1:]
	p.eng.Access(r.Tile, r.Addr, r.Write, p.retired)
}

func (p *player) retire() {
	p.n++
	p.last = p.k.Now()
	p.step()
}

// retiredRefs sums the refs every player has retired.
func retiredRefs(ps []*player) int {
	n := 0
	for _, p := range ps {
		n += p.n
	}
	return n
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

// wideMinRefs is the length DecodeStream extends a wide stream to:
// shorter ones seldom overflow a set or purge a stamp table.
const wideMinRefs = 256

// DecodeStream maps raw fuzzer bytes onto a reference stream: two
// bytes per record (tile + write bit, block + gap), so every input is
// valid and small mutations move single references. Bit 0x40 of the
// first byte selects the wide shape: each record's tile comes from the
// low four bits of its first byte, and the three bits above them add
// one of eight multiples of WideStride to its block. Without that bit,
// bits 0x3f of the first byte pick the tile and every block lies below
// blocks. A wide stream shorter than wideMinRefs records repeats
// cyclically up to that length, each lap 8 × WideStride blocks above
// the last, so it touches new blocks in the same homes and sets (a
// plain repeat would overflow nothing).
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
	for i := 0; wide && len(recs) > 0 && len(recs) < wideMinRefs; i++ {
		r := recs[i]
		r.Addr += 8 * WideStride
		recs = append(recs, r)
	}
	return recs
}

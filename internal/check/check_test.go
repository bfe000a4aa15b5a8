package check

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/topo"
)

var protocols = []string{"directory", "dico", "providers", "arin"}

// corpus returns the seeded high-conflict streams: many tiles, few
// blocks, write-heavy. Parameters vary so the corpus covers different
// contention shapes (single-block hammering through mild spread).
func corpus() map[string][]Ref {
	streams := make(map[string][]Ref)
	shapes := []struct {
		blocks, refs, writePct int
	}{
		{1, 400, 60},   // one block, all tiles
		{2, 500, 75},   // write-dominated pair
		{4, 600, 50},   //
		{6, 600, 60},   //
		{8, 800, 40},   // read-heavier, more blocks
		{16, 800, 60},  // one block per tile, cross-home traffic
		{40, 1000, 50}, // overflows the tiny L1: evictions + writebacks
		{64, 1200, 60}, // heavy replacement: recalls, straggler paths
	}
	seed := uint64(1)
	for _, sh := range shapes {
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("b%dw%d-s%d", sh.blocks, sh.writePct, seed)
			streams[name] = ConflictStream(seed, 16, sh.blocks, sh.refs, sh.writePct)
			seed++
		}
	}
	return streams
}

// refImage computes the shadow image a serial execution must produce,
// straight from the stream.
func refImage(recs []Ref) map[cache.Addr]Block {
	img := make(map[cache.Addr]Block)
	for _, r := range recs {
		if r.Write {
			b := img[r.Addr]
			b.Ver++
			b.LastWriter = r.Tile
			img[r.Addr] = b
		}
	}
	return img
}

// verOnly projects an image to per-block store counts (concurrent
// runs serialize writes in protocol-dependent order, so LastWriter
// may legitimately differ between protocols; Ver may not).
func verOnly(img map[cache.Addr]Block) map[cache.Addr]uint64 {
	out := make(map[cache.Addr]uint64, len(img))
	for a, b := range img {
		out[a] = b.Ver
	}
	return out
}

// TestStressConcurrent runs the seeded corpus on all four protocols
// with the shadow checker and watchdog armed, and differentially
// compares per-block retired-store counts across protocols.
func TestStressConcurrent(t *testing.T) {
	for name, recs := range corpus() {
		var base map[cache.Addr]uint64
		var baseProto string
		for _, p := range protocols {
			img, err := RunRecord(p, recs, 16, 4, 7, false)
			if err != nil {
				t.Errorf("%s/%s: %v", name, p, err)
				continue
			}
			vo := verOnly(img)
			if base == nil {
				base, baseProto = vo, p
			} else if !reflect.DeepEqual(base, vo) {
				t.Errorf("%s: store counts diverge between %s and %s:\n%v\nvs\n%v",
					name, baseProto, p, base, vo)
			}
		}
	}
}

// TestStressSerial runs a subset of the corpus one reference at a
// time: with a fixed serialization all four protocols must produce
// the exact reference image (count and last writer per block).
func TestStressSerial(t *testing.T) {
	for name, recs := range corpus() {
		if len(recs) > 500 {
			continue // serial mode is slower; the short streams suffice
		}
		want := refImage(recs)
		for _, p := range protocols {
			img, err := RunRecord(p, recs, 16, 4, 7, true)
			if err != nil {
				t.Errorf("%s/%s serial: %v", name, p, err)
				continue
			}
			if !reflect.DeepEqual(want, img) {
				t.Errorf("%s/%s serial: image mismatch:\nwant %v\ngot  %v", name, p, want, img)
			}
		}
	}
}

// TestDecodeStream checks the fuzz decoder maps arbitrary bytes to
// in-range records.
func TestDecodeStream(t *testing.T) {
	data := []byte{0x8f, 0xff, 0x00, 0x00, 0x3f, 0x7a, 0x90, 0x41}
	recs := DecodeStream(data, 16, 8)
	if len(recs) != 4 {
		t.Fatalf("want 4 records, got %d", len(recs))
	}
	for i, r := range recs {
		if r.Tile < 0 || int(r.Tile) >= 16 {
			t.Errorf("record %d: tile %d out of range", i, r.Tile)
		}
		if uint64(r.Addr) >= 8 {
			t.Errorf("record %d: addr %#x out of range", i, r.Addr)
		}
		if r.Gap < 0 || r.Gap > 3 {
			t.Errorf("record %d: gap %d out of range", i, r.Gap)
		}
	}
	if !recs[0].Write || recs[1].Write {
		t.Errorf("write bits wrong: %+v", recs[:2])
	}
	// Bit 0x40 of the first byte selects the wide shape, which repeats
	// cyclically up to wideMinRefs records, each lap 8 strides higher.
	wide := DecodeStream([]byte{0xcf, 0x42, 0x35, 0x07, 0x70, 0x01}, 16, 8)
	want := []Ref{
		{Tile: 15, Addr: 4*WideStride + 2, Write: true, Gap: 1},
		{Tile: 5, Addr: 3*WideStride + 7},
		{Tile: 0, Addr: 7*WideStride + 1},
	}
	if len(wide) != wideMinRefs {
		t.Fatalf("wide stream decodes to %d records, want %d", len(wide), wideMinRefs)
	}
	for i, r := range wide {
		w := want[i%len(want)]
		w.Addr += cache.Addr(i/len(want)) * 8 * WideStride
		if r != w {
			t.Errorf("wide record %d = %+v, want %+v", i, r, w)
		}
	}
	// A wide stream already that long decodes unchanged.
	long := make([]byte, 2*(wideMinRefs+1))
	long[0] = 0x40
	if got := len(DecodeStream(long, 16, 8)); got != wideMinRefs+1 {
		t.Errorf("a %d-record wide stream decodes to %d records", wideMinRefs+1, got)
	}
}

// TestReplayPreservesOrder pins the replay order every stress and fuzz
// stream dispatches in: tiles start in order of first appearance and
// each tile plays its own refs in stream order, however the tiles
// interleave in the stream.
func TestReplayPreservesOrder(t *testing.T) {
	recs := []Ref{
		{Tile: 3, Addr: 0x1234, Gap: 2},
		{Tile: 7, Addr: 0xbeef, Write: true},
		{Tile: 3, Addr: 0x1234, Write: true, Gap: 5},
		{Tile: 1, Addr: 0x10},
	}
	order, perTile := splitTiles(recs, 16)
	if !reflect.DeepEqual(order, []topo.Tile{3, 7, 1}) {
		t.Errorf("tile start order %v, want [3 7 1]", order)
	}
	if want := []Ref{recs[0], recs[2]}; !reflect.DeepEqual(perTile[3], want) {
		t.Errorf("tile 3 plays %+v, want %+v", perTile[3], want)
	}
	if len(perTile[7]) != 1 || len(perTile[1]) != 1 || perTile[0] != nil {
		t.Errorf("per-tile streams %d/%d/%d refs, want 1/1/0", len(perTile[7]), len(perTile[1]), len(perTile[0]))
	}
}

// TestShadowStaleHitFires feeds the checker a hand-built violating
// history to prove it actually fires: the block is at store version 2
// but tile 1's copy corresponds to version 1 and "hits" anyway.
func TestShadowStaleHitFires(t *testing.T) {
	c, err := NewChip(ChipConfig{Protocol: "directory", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := c.Shadow
	b := sh.block(0x10)
	b.ver = 2
	b.lastWriter = 2
	b.seenMask = 1 << 1
	b.seen[1] = 1                           // tile 1 last saw v1
	sh.Retired(1, 0x10, false, true, false) // stale hit
	if sh.Violations() != 1 {
		t.Fatalf("want 1 violation, got %d", sh.Violations())
	}
	if err := sh.Err(); err == nil {
		t.Fatal("Err() should be non-nil")
	}
	img := sh.Image()
	if img[0x10].Ver != 2 || img[0x10].LastWriter != 2 {
		t.Fatalf("image wrong: %+v", img[0x10])
	}
	_ = topo.Tile(0)
}

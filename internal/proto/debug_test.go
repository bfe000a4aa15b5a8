package proto

import (
	"strings"
	"testing"

	"repro/internal/cache"
)

// TestFormatBlockStateKeepsL2CReplacement: dumping a block must not
// refresh its L2C$ entry. check.Shadow dumps the block of every
// recorded violation, so a dump that moved the LRU order would make a
// checked run displace — and recall — different owners than the same
// run unchecked.
func TestFormatBlockStateKeepsL2CReplacement(t *testing.T) {
	displaced := func(dump bool) cache.Addr {
		c := newTestChip(t, allEngines[1].mk)
		eng := c.eng.(*DiCo)
		cfg := c.ctx.Cfg
		const home = 5
		// Same home bank, same L2C$ set: the set index skips the bank bits.
		stride := cache.Addr(c.ctx.NumTiles() * cfg.CCSets)
		th := eng.tiles[home]
		for w := 0; w < cfg.CCWays; w++ {
			th.l2c.Update(home+cache.Addr(w)*stride, int16(w))
		}
		if dump {
			FormatBlockState(eng, home) // the set's LRU block
		}
		ev, _, ok := th.l2c.Update(home+cache.Addr(cfg.CCWays)*stride, 9)
		if !ok {
			t.Fatal("full L2C$ set did not displace an entry")
		}
		return ev
	}
	if plain, dumped := displaced(false), displaced(true); plain != dumped {
		t.Errorf("after a dump the L2C$ displaced %#x, without one %#x", dumped, plain)
	}
}

// TestTilesBuildOnlyWhatTheirEngineReads: the directory's tiles carry a
// directory cache and no pointer caches; every DiCo-family tile has its
// L1C$ and L2C$ and no directory cache. The block dump works on either layout.
func TestTilesBuildOnlyWhatTheirEngineReads(t *testing.T) {
	for _, e := range allEngines {
		c := newTestChip(t, e.mk)
		c.access(3, 0x45, true)
		if got := FormatBlockState(c.eng, 0x45); !strings.Contains(got, "L1[3]") {
			t.Errorf("%s: dump misses the writer's copy:\n%s", e.name, got)
		}
		var dir, l1c, l2c, n int
		count := func(d *cache.Array[cache.DirLine], p1, p2 *cache.PointerCache) {
			n++
			if d != nil {
				dir++
			}
			if p1 != nil {
				l1c++
			}
			if p2 != nil {
				l2c++
			}
		}
		switch eng := c.eng.(type) {
		case *Directory:
			for _, ts := range eng.tiles {
				count(ts.dir, ts.l1c, ts.l2c)
			}
			if dir != n || l1c != 0 || l2c != 0 {
				t.Errorf("directory: %d tiles, %d dir caches, %d L1C$, %d L2C$; want %d, 0, 0", n, dir, l1c, l2c, n)
			}
			continue
		case *DiCo:
			for _, ts := range eng.tiles {
				count(ts.dir, ts.l1c, ts.l2c)
			}
		case *Providers:
			for _, ts := range eng.tiles {
				count(ts.dir, ts.l1c, ts.l2c)
			}
		case *Arin:
			for _, ts := range eng.tiles {
				count(ts.dir, ts.l1c, ts.l2c)
			}
		}
		if n != c.ctx.NumTiles() || dir != 0 || l1c != n || l2c != n {
			t.Errorf("%s: %d tiles, %d dir caches, %d L1C$, %d L2C$; want %d, 0, %d, %d",
				e.name, n, dir, l1c, l2c, c.ctx.NumTiles(), n, n)
		}
	}
}

package proto

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/topo"
)

// TestDiCoL2CRecall forces L2C$ displacement: with a 2-entry L2C$,
// taking ownership of six blocks homed at one bank displaces the
// pointers of the first four, and each displacement recalls that
// block's ownership to the home L2. The L2C$ keeps the two newest
// owners, and the system stays coherent and reachable.
func TestDiCoL2CRecall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CCSets, cfg.CCWays = 1, 2 // 2-entry L2C$ per bank
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewDiCo(ctx) }, 64, 4, cfg)
	home := topo.Tile(5)
	// Six blocks homed at tile 5, owned by six different tiles.
	var addrs []cache.Addr
	for i := 0; i < 6; i++ {
		addrs = append(addrs, pickBlock(c, home)+cache.Addr(64*i))
	}
	for i, a := range addrs {
		c.access(topo.Tile(10+i), a, true) // writers become L1 owners
	}
	th := c.eng.(*DiCo).tiles[home]
	for i, a := range addrs[:4] {
		if th.l2.Peek(a) == nil {
			t.Errorf("block %d (%#x): pointer displaced from the L2C$ but the block is not in home %d's L2", i, a, home)
		}
	}
	for i, a := range addrs[4:] {
		owner := topo.Tile(14 + i)
		if ptr, ok := th.l2c.Peek(a); !ok || topo.Tile(ptr) != owner {
			t.Errorf("block %d (%#x): L2C$ holds (%d, %v), want owner %d", 4+i, a, ptr, ok, owner)
		}
	}
	// Every block must still be readable by a third party.
	for i, a := range addrs {
		c.access(topo.Tile(30+i), a, false)
	}
}

// TestDiCoPredictionUpdatedByInvalidation: per Figure 5, an
// invalidation carries the new owner's identity, so the next miss by
// the invalidated sharer goes straight to the writer.
func TestDiCoPredictionUpdatedByInvalidation(t *testing.T) {
	c := newTestChip(t, func(ctx *Context) Engine { return NewDiCo(ctx) })
	g := c.ctx.Net.Grid()
	addr := pickBlock(c, g.At(0, 0))
	owner := g.At(1, 1)
	sharer := g.At(2, 2)
	writer := g.At(5, 5)
	c.access(owner, addr, false)
	c.access(sharer, addr, false)
	c.access(writer, addr, true) // invalidates sharer, hints = writer
	d := profileDelta(c, func() { c.access(sharer, addr, false) })
	if d.Count[MissPredOwner] != 1 {
		t.Fatalf("re-read after invalidation not predicted to the new owner: %+v", d.Count)
	}
	want := 2 * g.Hops(sharer, writer)
	if got := int(d.Links[MissPredOwner]); got != want {
		t.Errorf("predicted miss took %d links, want %d (straight to the writer)", got, want)
	}
}

// TestProvidersNoProvider: evicting a provider with no sharers in its
// area must clear the owner's ProPo for that area (Table II).
func TestProvidersNoProvider(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 1, 2
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewProviders(ctx) }, 64, 4, cfg)
	g := c.ctx.Net.Grid()
	home := g.At(0, 0)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)    // area 0
	provider := g.At(6, 6) // area 3, alone in its area
	c.access(owner, addr, false)
	c.access(provider, addr, false)
	eng := c.eng.(*Providers)
	area := c.ctx.Areas.Of(provider)
	if ol := eng.tiles[owner].l1.Peek(addr); ol == nil || ol.ProPos[area] < 0 {
		t.Fatal("setup: owner has no ProPo for the provider's area")
	}
	// Evict the provider by conflict.
	c.access(provider, addr+64, false)
	c.access(provider, addr+128, false)
	c.drain()
	ol := eng.tiles[owner].l1.Peek(addr)
	if ol == nil || !dcIsOwner(ol.State) {
		t.Skip("owner line evicted by the same pressure")
	}
	if ol.ProPos[area] >= 0 {
		t.Errorf("owner ProPos[%d] = %d after No_Provider, want -1", area, ol.ProPos[area])
	}
}

// TestProvidersStalePointerToRequestor: a stale provider pointer may
// name the very tile now missing on the block (its providership ended
// and the No_Provider update was dropped while the ownership moved).
// The owner then forwards that tile's read to the tile itself, where
// the request must go back to the home, repairing the pointer, instead
// of stalling behind its own miss forever.
func TestProvidersStalePointerToRequestor(t *testing.T) {
	c := newTestChip(t, func(ctx *Context) Engine { return NewProviders(ctx) })
	g := c.ctx.Net.Grid()
	addr := pickBlock(c, g.At(0, 0))
	owner := g.At(1, 1)  // area 0
	reader := g.At(6, 6) // area 3
	c.access(owner, addr, true)
	eng := c.eng.(*Providers)
	eng.tiles[owner].l1.Peek(addr).ProPos[eng.areaOf(reader)] = eng.areaIdx(reader)
	c.access(reader, addr, false)
	if l := eng.tiles[reader].l1.Peek(addr); l == nil || l.State != dcProvider {
		t.Errorf("reader's copy = %+v, want its area's provider", l)
	}
}

// TestArinForwarderFixup: Section IV-B — when a stale provider
// forwards a request to the home, the home replaces the stale ProPo
// with the requestor.
func TestArinForwarderFixup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 1, 2
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewArin(ctx) }, 64, 4, cfg)
	g := c.ctx.Net.Grid()
	home := g.At(4, 0)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)             // area 0
	provider := g.At(6, 6)          // area 3
	reader := g.At(7, 7)            // area 3
	c.access(owner, addr, false)    // L1 owner
	c.access(provider, addr, false) // dissolves: inter-area, provider registered
	eng := c.eng.(*Arin)
	area := c.ctx.Areas.Of(provider)
	l2 := eng.tiles[home].l2.Peek(addr)
	if l2 == nil || l2.State != l2Inter || l2.ProPos[area] != int8(c.ctx.Areas.IndexInArea(provider)) {
		t.Fatalf("setup: home entry %+v", l2)
	}
	// Evict the provider silently (Arin providers leave silently) and
	// give the reader a prediction pointing at the dead provider.
	c.access(provider, addr+64, false)
	c.access(provider, addr+128, false)
	c.drain()
	eng.tiles[reader].l1c.Update(addr, int16(provider))
	c.access(reader, addr, false) // pred fails, forwards to home with forwarder id
	l2 = eng.tiles[home].l2.Peek(addr)
	if l2 == nil {
		t.Fatal("home entry vanished")
	}
	if l2.ProPos[area] != int8(c.ctx.Areas.IndexInArea(reader)) {
		t.Errorf("home ProPos[%d] = %d, want the requestor (fixup)", area, l2.ProPos[area])
	}
}

// TestArinL2InterEvictionBroadcast: evicting an inter-area block from
// the home L2 must broadcast (invalidate + unblock) and leave no copy.
func TestArinL2InterEvictionBroadcast(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Sets, cfg.L2Ways = 1, 1 // one-line L2 banks: eviction on demand
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewArin(ctx) }, 64, 4, cfg)
	g := c.ctx.Net.Grid()
	home := g.At(4, 0)
	addr := pickBlock(c, home)
	ownerA := g.At(1, 1)
	readerB := g.At(6, 6)
	c.access(ownerA, addr, false)
	c.access(readerB, addr, false) // inter-area: lives in home L2
	eng := c.eng.(*Arin)
	if l2 := eng.tiles[home].l2.Peek(addr); l2 == nil || l2.State != l2Inter {
		t.Fatal("setup: block not inter-area at home")
	}
	before := c.ctx.Net.Stats().Broadcasts
	// A second inter-area block at the same home evicts the first.
	addr2 := addr + 64*64 // same bank (addr mod 64), same single set
	c.access(g.At(2, 2), addr2, false)
	c.access(g.At(7, 7), addr2, false) // dissolve #2 -> insert at home -> evict #1
	c.drain()
	if got := c.ctx.Net.Stats().Broadcasts - before; got < 2 {
		t.Errorf("inter eviction used %d broadcasts, want >= 2", got)
	}
	for i := range eng.tiles {
		if l := eng.tiles[i].l1.Peek(addr); l != nil && eng.tiles[home].l2.Peek(addr) == nil {
			t.Errorf("tile %d still holds the evicted inter block", i)
		}
	}
}

// TestDirectoryDirEntryEviction: NCID — evicting a directory entry
// invalidates every cached copy chip-wide.
func TestDirectoryDirEntryEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Sets, cfg.L2Ways = 1, 1
	cfg.CCSets, cfg.CCWays = 1, 1 // dir = 1 set x (1+1) ways
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewDirectory(ctx) }, 64, 4, cfg)
	g := c.ctx.Net.Grid()
	home := g.At(3, 3)
	addr := pickBlock(c, home)
	readers := []topo.Tile{g.At(0, 0), g.At(7, 7)}
	for _, r := range readers {
		c.access(r, addr, false)
	}
	// Three more blocks at the same home overflow the 2-entry dir.
	for i := 1; i <= 3; i++ {
		c.access(g.At(2, 2), addr+cache.Addr(64*64*i), false)
	}
	c.drain()
	eng := c.eng.(*Directory)
	if eng.tiles[home].dir.Peek(addr) == nil {
		for _, r := range readers {
			if l := eng.tiles[r].l1.Peek(addr); l != nil {
				t.Errorf("tile %d holds a copy with no directory entry (NCID violated)", r)
			}
		}
	}
}

// TestCrossVMDedupSharing drives two same-area cores and two
// remote-area cores at one dedup-like block across all protocols and
// checks the final holder counts agree with each protocol's design.
func TestCrossVMDedupSharing(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			g := c.ctx.Net.Grid()
			addr := pickBlock(c, g.At(0, 4))
			tiles := []topo.Tile{g.At(1, 1), g.At(2, 1), g.At(6, 6), g.At(7, 6)}
			for _, tile := range tiles {
				c.access(tile, addr, false)
			}
			// All four must now hit locally.
			before := c.eng.MissProfile().Hits
			for _, tile := range tiles {
				c.access(tile, addr, false)
			}
			if got := c.eng.MissProfile().Hits - before; got != 4 {
				t.Errorf("%d/4 re-reads hit", got)
			}
		})
	}
}

// TestDirectoryReservedWay: a miss must not evict the directory way
// that an allocation has reserved while its victim's copies are still
// being invalidated. Each home here has one 2-way directory set. C's
// miss evicts A's entry and reserves the way for C; B's hit then makes
// that way the set's LRU, so D's miss probes it as its victim. Were D
// to take the way, its allocation would find no holders, finish at
// once and clear C's home-busy flag, and A's round would then write C's
// owner into the entry that now tracks D.
func TestDirectoryReservedWay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Sets, cfg.L2Ways = 1, 1
	cfg.CCSets, cfg.CCWays = 1, 1 // dir = 1 set x (1+1) ways
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewDirectory(ctx) }, 64, 4, cfg)
	g := c.ctx.Net.Grid()
	home := g.At(3, 3)
	blk := func(k int) cache.Addr { return pickBlock(c, home) + cache.Addr(k*64*64) }
	c.access(g.At(7, 7), blk(0), false)
	c.access(g.At(7, 0), blk(1), false)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("directory invariants broken: %v", r)
		}
	}()
	c.parallelAccess([]struct {
		tile  topo.Tile
		addr  cache.Addr
		write bool
	}{
		{g.At(3, 4), blk(2), false},
		{g.At(2, 4), blk(1), false},
		{g.At(1, 4), blk(3), false},
	})
}

package proto

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/topo"
)

// pickBlock returns a block address homed at the given tile.
func pickBlock(c *testChip, home topo.Tile) cache.Addr {
	base := cache.Addr(0x40000)
	for a := base; ; a++ {
		if c.ctx.HomeOf(a) == home {
			return a
		}
	}
}

// profileDelta runs fn and returns the change in the miss profile.
func profileDelta(c *testChip, fn func()) MissProfile {
	before := c.eng.MissProfile()
	fn()
	after := c.eng.MissProfile()
	var d MissProfile
	for i := range d.Count {
		d.Count[i] = after.Count[i] - before.Count[i]
		d.Links[i] = after.Links[i] - before.Links[i]
	}
	d.Hits = after.Hits - before.Hits
	return d
}

// TestFigure2Directory reproduces Figure 2(a): a read to a block whose
// owner is an L1 in another area suffers the directory's indirection
// (3 message legs: requestor -> home -> owner -> requestor).
func TestFigure2Directory(t *testing.T) {
	c := newTestChip(t, func(ctx *Context) Engine { return NewDirectory(ctx) })
	g := c.ctx.Net.Grid()
	home := g.At(4, 4)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)          // area 0
	reader := g.At(6, 6)         // area 3
	c.access(owner, addr, false) // owner becomes exclusive
	d := profileDelta(c, func() { c.access(reader, addr, false) })
	if d.Count[MissUnpredOwner] != 1 {
		t.Fatalf("expected an owner-forwarded miss, got %+v", d.Count)
	}
	// Links: reader->home + home->owner + owner->reader.
	want := g.Hops(reader, home) + g.Hops(home, owner) + g.Hops(owner, reader)
	if got := int(d.Links[MissUnpredOwner]); got != want {
		t.Errorf("indirection traversed %d links, want %d", got, want)
	}
}

// TestFigure2DiCo reproduces Figure 2(b): with a supplier prediction,
// DiCo reaches the owner directly (2 legs).
func TestFigure2DiCo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 2, 2 // force evictions so the L1C$ learns
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewDiCo(ctx) }, 64, 4, cfg)
	g := c.ctx.Net.Grid()
	home := g.At(4, 4)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)
	reader := g.At(6, 6)
	c.access(owner, addr, false) // owner in L1 (exclusive)
	c.access(reader, addr, false)
	// Evict the reader's copy so it re-misses; the supplier hint moves
	// into its L1C$ on eviction.
	for i := 0; i < 8; i++ {
		c.access(reader, addr+cache.Addr(64*(i+1)), false)
	}
	if _, ok := c.eng.(*DiCo).tiles[reader].l1c.Lookup(addr); !ok {
		t.Skip("reader's L1C$ entry was displaced; prediction untestable here")
	}
	d := profileDelta(c, func() { c.access(reader, addr, false) })
	if d.Count[MissPredOwner] != 1 {
		t.Fatalf("expected a predicted owner hit, got %+v", d.Count)
	}
	want := 2 * g.Hops(reader, owner)
	if got := int(d.Links[MissPredOwner]); got != want {
		t.Errorf("predicted miss traversed %d links, want %d (2 hops)", got, want)
	}
}

// TestFigure2Providers reproduces Figure 2(c): a read to a
// deduplicated block finds the provider inside the requestor's area —
// the shortened miss.
func TestFigure2Providers(t *testing.T) {
	c := newTestChip(t, func(ctx *Context) Engine { return NewProviders(ctx) })
	g := c.ctx.Net.Grid()
	home := g.At(0, 0)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)  // area 0
	sharer := g.At(6, 6) // area 3: becomes the area's provider
	reader := g.At(7, 7) // area 3: served inside the area
	c.access(owner, addr, false)
	d := profileDelta(c, func() { c.access(sharer, addr, false) })
	if d.Count[MissUnpredOwner]+d.Count[MissPredOwner] != 1 {
		t.Fatalf("first remote read should be owner-served, got %+v", d.Count)
	}
	// The sharer is now area 3's provider (Table I: no provider in the
	// requestor's area -> requestor becomes provider).
	line := c.eng.(*Providers).tiles[sharer].l1.Peek(addr)
	if line == nil || line.State != dcProvider {
		t.Fatalf("sharer did not become provider (state %v)", line)
	}
	d = profileDelta(c, func() { c.access(reader, addr, false) })
	if d.Count[MissUnpredProvider] != 1 {
		t.Fatalf("expected a provider-served miss, got %+v", d.Count)
	}
	// The provider leg stays inside the 4x4 area: home leg + forward
	// legs; the data leg is in-area (<= 6 links each way).
	if got := d.Links[MissUnpredProvider]; got > uint64(g.Hops(reader, home)+g.Hops(home, owner)+g.Hops(owner, sharer)+g.Hops(sharer, reader)) {
		t.Errorf("provider miss took %d links, more than the worst-case route", got)
	}
}

// TestFigure2ProvidersPredicted: once the reader has been served by
// the provider, a re-miss predicts it directly — two hops inside the
// area (the paper's 5.4-links shortened miss).
func TestFigure2ProvidersPredicted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 2, 2
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewProviders(ctx) }, 64, 4, cfg)
	g := c.ctx.Net.Grid()
	home := g.At(0, 0)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)
	provider := g.At(6, 6)
	reader := g.At(7, 7)
	c.access(owner, addr, false)
	c.access(provider, addr, false)
	c.access(reader, addr, false)
	for i := 0; i < 8; i++ { // evict the reader's copy; hint -> L1C$
		c.access(reader, addr+cache.Addr(64*(i+1)), false)
	}
	if _, ok := c.eng.(*Providers).tiles[reader].l1c.Lookup(addr); !ok {
		t.Skip("reader's L1C$ entry was displaced; prediction untestable here")
	}
	d := profileDelta(c, func() { c.access(reader, addr, false) })
	if d.Count[MissPredProvider] != 1 {
		t.Fatalf("expected a predicted provider hit, got %+v", d.Count)
	}
	want := 2 * g.Hops(reader, provider) // in-area round trip
	if got := int(d.Links[MissPredProvider]); got != want {
		t.Errorf("shortened miss traversed %d links, want %d", got, want)
	}
	if got := int(d.Links[MissPredProvider]); got > 12 {
		t.Errorf("shortened miss left the area: %d links", got)
	}
}

// TestFigure4WriteInvalidation reproduces Figure 4: on a write, the
// owner invalidates its local sharers and the providers; the providers
// invalidate their areas' sharers; all acks converge on the requestor.
func TestFigure4WriteInvalidation(t *testing.T) {
	c := newTestChip(t, func(ctx *Context) Engine { return NewProviders(ctx) })
	g := c.ctx.Net.Grid()
	home := g.At(0, 0)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)    // area 0 owner
	localShr := g.At(2, 2) // area 0 sharer
	provider := g.At(6, 2) // area 1 provider
	areaShr := g.At(7, 3)  // area 1 sharer under the provider
	writer := g.At(2, 6)   // area 2 writer
	c.access(owner, addr, false)
	c.access(localShr, addr, false)
	c.access(provider, addr, false)
	c.access(areaShr, addr, false)
	eng := c.eng.(*Providers)
	if l := eng.tiles[provider].l1.Peek(addr); l == nil || l.State != dcProvider {
		t.Fatalf("provider setup failed: %v", l)
	}
	c.access(writer, addr, true)
	// Everybody but the writer must be gone; the writer owns it.
	for _, tile := range []topo.Tile{owner, localShr, provider, areaShr} {
		if l := eng.tiles[tile].l1.Peek(addr); l != nil {
			t.Errorf("tile %d still holds the block after the write (state %d)", tile, l.State)
		}
	}
	if l := eng.tiles[writer].l1.Peek(addr); l == nil || l.State != dcOwnerModified {
		t.Errorf("writer does not own the block modified: %v", l)
	}
}

// TestArinDissolution checks Section III-B: the first remote-area read
// dissolves ownership — the former owner and the requestor become
// providers and the block lands in the home L2 in inter-area form.
func TestArinDissolution(t *testing.T) {
	c := newTestChip(t, func(ctx *Context) Engine { return NewArin(ctx) })
	g := c.ctx.Net.Grid()
	home := g.At(4, 0)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)  // area 0
	remote := g.At(6, 6) // area 3
	c.access(owner, addr, false)
	eng := c.eng.(*Arin)
	if l := eng.tiles[owner].l1.Peek(addr); l == nil || !dcIsOwner(l.State) {
		t.Fatal("setup: no L1 owner")
	}
	c.access(remote, addr, false)
	if l := eng.tiles[owner].l1.Peek(addr); l == nil || l.State != dcProvider {
		t.Errorf("former owner state = %v, want provider", l)
	}
	if l := eng.tiles[remote].l1.Peek(addr); l == nil || l.State != dcProvider {
		t.Errorf("remote reader state = %v, want provider", l)
	}
	l2 := eng.tiles[home].l2.Peek(addr)
	if l2 == nil || l2.State != l2Inter {
		t.Fatalf("home entry = %v, want inter-area form", l2)
	}
	ownerArea := c.ctx.Areas.Of(owner)
	if l2.ProPos[ownerArea] != int8(c.ctx.Areas.IndexInArea(owner)) {
		t.Errorf("home ProPos[%d] = %d, want the former owner", ownerArea, l2.ProPos[ownerArea])
	}
}

// TestArinBroadcastWrite checks Section IV-B1: a write to an
// inter-area block invalidates every copy via the three-phase
// broadcast and re-establishes intra-area ownership at the writer.
func TestArinBroadcastWrite(t *testing.T) {
	c := newTestChip(t, func(ctx *Context) Engine { return NewArin(ctx) })
	g := c.ctx.Net.Grid()
	home := g.At(4, 0)
	addr := pickBlock(c, home)
	readers := []topo.Tile{g.At(1, 1), g.At(6, 1), g.At(1, 6), g.At(6, 6)}
	for _, r := range readers {
		c.access(r, addr, false)
	}
	eng := c.eng.(*Arin)
	if l2 := eng.tiles[home].l2.Peek(addr); l2 == nil || l2.State != l2Inter {
		t.Fatal("setup: block not inter-area")
	}
	bcastBefore := c.ctx.Net.Stats().Broadcasts
	writer := g.At(3, 3)
	c.access(writer, addr, true)
	if got := c.ctx.Net.Stats().Broadcasts - bcastBefore; got < 2 {
		t.Errorf("write used %d broadcasts, want >= 2 (invalidate + unblock)", got)
	}
	for _, r := range readers {
		if l := eng.tiles[r].l1.Peek(addr); l != nil {
			t.Errorf("reader %d still holds a copy after the broadcast write", r)
		}
	}
	if l := eng.tiles[writer].l1.Peek(addr); l == nil || l.State != dcOwnerModified {
		t.Errorf("writer state = %v, want owner-modified", l)
	}
	if eng.tiles[home].l2.Peek(addr) != nil {
		t.Error("home still holds the (stale) inter-area copy")
	}
}

// TestDiCoOwnerWriteHit checks Direct Coherence's hallmark: the owner
// invalidates its sharers itself, with no home involvement on the
// request path.
func TestDiCoOwnerWriteHit(t *testing.T) {
	c := newTestChip(t, func(ctx *Context) Engine { return NewDiCo(ctx) })
	g := c.ctx.Net.Grid()
	addr := pickBlock(c, g.At(0, 0))
	owner := g.At(1, 1)
	sharers := []topo.Tile{g.At(2, 1), g.At(5, 5)}
	c.access(owner, addr, false)
	for _, s := range sharers {
		c.access(s, addr, false)
	}
	d := profileDelta(c, func() { c.access(owner, addr, true) })
	// The owner's write resolves locally (counted as a 0-link
	// pred-owner event) and kills both sharers.
	if d.Count[MissPredOwner] != 1 {
		t.Fatalf("owner write hit not recorded: %+v", d.Count)
	}
	eng := c.eng.(*DiCo)
	for _, s := range sharers {
		if l := eng.tiles[s].l1.Peek(addr); l != nil {
			t.Errorf("sharer %d survived the owner's write", s)
		}
	}
}

// TestProvidersReplacementTableII checks Table II: evicting a provider
// with sharers in its area passes the providership to a sharer, which
// notifies the owner with Change_Provider.
func TestProvidersReplacementTableII(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 1, 2 // tiny L1: evictions on demand
	c := newTestChipSized(t, func(ctx *Context) Engine { return NewProviders(ctx) }, 64, 4, cfg)
	g := c.ctx.Net.Grid()
	home := g.At(0, 0)
	addr := pickBlock(c, home)
	owner := g.At(1, 1)    // area 0
	provider := g.At(6, 6) // area 3
	sharer := g.At(7, 7)   // area 3
	c.access(owner, addr, false)
	c.access(provider, addr, false) // becomes provider
	c.access(sharer, addr, false)   // sharer under the provider
	// Evict the provider's line by touching two conflicting blocks.
	c.access(provider, addr+64, false)
	c.access(provider, addr+128, false)
	c.drain()
	eng := c.eng.(*Providers)
	l := eng.tiles[sharer].l1.Peek(addr)
	if l == nil || l.State != dcProvider {
		t.Fatalf("sharer did not inherit providership: %v", l)
	}
	// The owner's ProPo for area 3 must point at the new provider.
	ol := eng.tiles[owner].l1.Peek(addr)
	if ol == nil || !dcIsOwner(ol.State) {
		t.Skip("owner line was evicted by the same pressure; pointer untestable")
	}
	area := c.ctx.Areas.Of(sharer)
	if ol.ProPos[area] != int8(c.ctx.Areas.IndexInArea(sharer)) {
		t.Errorf("owner ProPos[%d] = %d, want the new provider", area, ol.ProPos[area])
	}
}

package proto_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/topo"
)

// holdersOf returns the tiles whose L1 holds addr and whether the
// home L2 does.
func holdersOf(c *check.Chip, addr cache.Addr) (l1 []topo.Tile, l2 bool) {
	c.Engine.ForEachCopy(addr, func(ci proto.CopyInfo) {
		if ci.L2 {
			l2 = true
		} else {
			l1 = append(l1, ci.Tile)
		}
	})
	return l1, l2
}

// TestProvidersL2EvictionThroughProvider drives DiCo-Providers' L2
// eviction through a provider that tracks a sharer, under the shadow
// checker, the stall rule and CheckInvariants. O owns block x, P
// (another area) becomes its area's provider and S (P's area) reads x
// through P. O's eviction returns the ownership to the home L2 with P's
// provider pointer; a second block z of the same one-line L2 bank then
// evicts x, so the home invalidates P, P invalidates S, and both acks
// reach the home before z's insertion resumes. A later write by W and
// read by S must see no stale copy.
func TestProvidersL2EvictionThroughProvider(t *testing.T) {
	cfg := proto.DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 1, 1 // each tile caches one block
	cfg.L2Sets, cfg.L2Ways = 1, 1 // one L2 line per bank
	c, err := check.NewChip(check.ChipConfig{Protocol: "providers", Tiles: 64, Areas: 4, Seed: 7, Proto: cfg})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Ctx.Net.Grid()
	home := g.At(3, 3)
	x := cache.Addr(home) // home = block mod 64
	z := x + 64           // same home, same L2 set
	o, p, s, tz, w := g.At(1, 1), g.At(6, 1), g.At(5, 2), g.At(2, 5), g.At(1, 6)
	if a := c.Ctx.Areas; a.Of(p) != a.Of(s) || a.Of(p) == a.Of(o) {
		t.Fatalf("setup: tiles %d and %d must share an area apart from %d's", p, s, o)
	}
	before := c.Engine.MissProfile()
	if err := c.RunSerial([]check.Ref{{Tile: o, Addr: x}, {Tile: p, Addr: x}, {Tile: s, Addr: x}}); err != nil {
		t.Fatal(err)
	}
	cls := proto.MissUnpredProvider
	if got := c.Engine.MissProfile().Count[cls] - before.Count[cls]; got != 1 {
		t.Fatalf("setup: %d misses supplied by a provider, want S's one", got)
	}
	// O's next block evicts x: the ownership returns home with P's
	// pointer. Then z's owner evicts z, whose insertion evicts x.
	if err := c.RunSerial([]check.Ref{{Tile: o, Addr: x + 1}, {Tile: tz, Addr: z}}); err != nil {
		t.Fatal(err)
	}
	if l1, l2 := holdersOf(c, x); !l2 || len(l1) != 2 {
		t.Fatalf("setup: x held by L1s %v (want P and S), in the home L2: %v", l1, l2)
	}
	if err := c.RunSerial([]check.Ref{{Tile: tz, Addr: z + 1}}); err != nil {
		t.Fatal(err)
	}
	if l1, l2 := holdersOf(c, x); l2 || len(l1) != 0 {
		t.Fatalf("after x's L2 eviction: held by L1s %v, in the home L2: %v", l1, l2)
	}
	if err := c.RunSerial([]check.Ref{{Tile: w, Addr: x, Write: true}, {Tile: s, Addr: x}}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryEvictionRacesPendingRead drives a directory-entry
// eviction whose holder has a read miss in flight on the victim, under
// the shadow checker, the stall rule and CheckInvariants. Each home
// has one 2-way directory set and one L2 line. X and Y share block a,
// and b's fill evicts a's L2 data, so a's entry survives with sharers
// only. R's read of a is then forwarded to the far sharer Y, and the
// home records R as a sharer. Before R's data arrives, c's miss evicts
// b's entry and d's miss evicts a's: the home's invalidation reaches R
// first, and R must drop the fill that follows, or it keeps a copy of a
// with no directory entry.
func TestDirectoryEvictionRacesPendingRead(t *testing.T) {
	cfg := proto.DefaultConfig()
	cfg.L2Sets, cfg.L2Ways = 1, 1 // one L2 line per bank
	cfg.CCSets, cfg.CCWays = 1, 1 // dir = 1 set x 2 ways
	c, err := check.NewChip(check.ChipConfig{Protocol: "directory", Tiles: 64, Areas: 4, Seed: 7, Proto: cfg})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Ctx.Net.Grid()
	home := g.At(3, 3)
	a := cache.Addr(home) // home = block mod 64; all four share the set
	b, cc, d := a+64, a+128, a+192
	x, y, z, r := g.At(7, 7), g.At(0, 7), g.At(7, 0), g.At(3, 4)
	if err := c.RunSerial([]check.Ref{{Tile: x, Addr: a}, {Tile: y, Addr: a}, {Tile: z, Addr: b}}); err != nil {
		t.Fatal(err)
	}
	if l1, l2 := holdersOf(c, a); l2 || len(l1) != 2 {
		t.Fatalf("setup: a held by L1s %v (want X and Y), in the home L2: %v", l1, l2)
	}
	remaining := 3
	for _, ref := range []check.Ref{{Tile: r, Addr: a}, {Tile: g.At(2, 3), Addr: cc}, {Tile: g.At(4, 3), Addr: d}} {
		c.Engine.Access(ref.Tile, ref.Addr, ref.Write, func() { remaining-- })
	}
	if err := c.RunSerial(nil); err != nil {
		t.Fatal(err)
	}
	if remaining != 0 {
		t.Fatalf("%d racing misses never retired", remaining)
	}
	if l1, _ := holdersOf(c, a); len(l1) != 0 {
		t.Fatalf("a's entry is evicted but L1s %v still hold it", l1)
	}
}

// delayedRef is one reference a test issues at a chosen cycle.
type delayedRef struct {
	c   *check.Chip
	ref check.Ref
}

func issueDelayed(a any) {
	d := a.(*delayedRef)
	d.c.Engine.Access(d.ref.Tile, d.ref.Addr, d.ref.Write, func() {})
}

// TestProvidersStragglerDropsInFlightFill drives DiCo-Providers' straggler
// invalidation under the shadow checker, the stall rule and
// CheckInvariants, on one-line L1s. Owner O's sharing code holds S1,
// whose copy left silently, and S2, whose read O has just served: S2's
// data is in flight when O's fill of y evicts x. The offer goes to S1
// first, which declines, and then to S2 on a route that overtakes the
// data, so S2 is skipped as pending and the ownership returns home with
// S2 left over. The home L2 form keeps no sharer, so the straggler
// invalidation must make S2 drop its fill: otherwise S2 keeps a copy
// that W's later write never invalidates, and S2's read after it hits
// stale data.
func TestProvidersStragglerDropsInFlightFill(t *testing.T) {
	cfg := proto.DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 1, 1 // each tile caches one block
	c, err := check.NewChip(check.ChipConfig{Protocol: "providers", Tiles: 64, Areas: 4, Seed: 7, Proto: cfg})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Ctx.Net.Grid()
	o, s1, s2, z, w := g.At(0, 0), g.At(0, 3), g.At(3, 3), g.At(5, 0), g.At(6, 6)
	x := cache.Addr(g.At(7, 7)) + 64*5 // home far from O and S2
	y := cache.Addr(o) + 64*3          // homed at O, so O's read of y is quick
	v := cache.Addr(g.At(6, 0)) + 64*9
	// O owns x with S1 in its code but no copy at S1; y sits in O's L2.
	if err := c.RunSerial([]check.Ref{{Tile: o, Addr: x, Write: true}, {Tile: s1, Addr: x}, {Tile: s1, Addr: v + 64},
		{Tile: z, Addr: y}, {Tile: z, Addr: v}}); err != nil {
		t.Fatal(err)
	}
	// O serves S2's read 110 cycles in; O's fill of y lands within the
	// 4 cycles by which the offer via S1 beats S2's data.
	c.Engine.Access(s2, x, false, func() {})
	c.Kernel.AfterArg(105, issueDelayed, &delayedRef{c, check.Ref{Tile: o, Addr: y}})
	if err := c.RunSerial(nil); err != nil {
		t.Fatal(err)
	}
	if l1, l2 := holdersOf(c, x); len(l1) != 0 || !l2 {
		t.Fatalf("after the race: x held by L1s %v (want none; S2's fill drops), in the home L2: %v (want it)", l1, l2)
	}
	if err := c.RunSerial([]check.Ref{{Tile: w, Addr: x, Write: true}, {Tile: s2, Addr: x}}); err != nil {
		t.Fatal(err)
	}
}

package proto_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/topo"
)

// TestDirectorySharerForward drives the directory's NCID sharer
// forward under the shadow checker, the stall rule and
// CheckInvariants: two tiles read a block, a second block homed at the
// same one-line L2 bank evicts its data while the directory entry
// survives, and a third reader's miss is forwarded to a clean L1
// sharer. In the race case the first sharer has silently dropped its
// copy, so the forward bounces back to the home, which drops the stale
// sharer bit and forwards again to the next sharer. The miss's link
// count pins the path taken.
func TestDirectorySharerForward(t *testing.T) {
	for _, race := range []bool{false, true} {
		name := "clean-sharer"
		if race {
			name = "silently-dropped"
		}
		t.Run(name, func(t *testing.T) {
			cfg := proto.DefaultConfig()
			cfg.L1Sets, cfg.L1Ways = 1, 2 // two reads evict a shared copy silently
			cfg.L2Sets, cfg.L2Ways = 1, 1 // one L2 line per bank
			cfg.CCSets, cfg.CCWays = 1, 2 // dir = 1 set x 3 ways: entries outlive the L2 data
			c, err := check.NewChip(check.ChipConfig{Protocol: "directory", Tiles: 64, Areas: 4, Seed: 7, Proto: cfg})
			if err != nil {
				t.Fatal(err)
			}
			g := c.Ctx.Net.Grid()
			home := g.At(3, 3)
			addr := cache.Addr(home) // home = block mod 64
			a, b, other, reader := g.At(0, 0), g.At(7, 7), g.At(2, 2), g.At(6, 1)
			setup := []check.Ref{
				{Tile: a, Addr: addr},
				{Tile: b, Addr: addr},
				{Tile: other, Addr: addr + 64}, // same home: evicts addr's L2 data
			}
			if race {
				// Two blocks homed elsewhere push addr out of a's L1.
				setup = append(setup, check.Ref{Tile: a, Addr: addr + 1}, check.Ref{Tile: a, Addr: addr + 2})
			}
			if err := c.RunSerial(setup); err != nil {
				t.Fatal(err)
			}
			c.Engine.ForEachCopy(addr, func(ci proto.CopyInfo) {
				if ci.L2 {
					t.Fatalf("setup: block %#x still in home %d's L2", addr, home)
				}
			})
			before := c.Engine.MissProfile()
			if err := c.RunSerial([]check.Ref{{Tile: reader, Addr: addr}}); err != nil {
				t.Fatal(err)
			}
			after := c.Engine.MissProfile()
			cls := proto.MissUnpredHome
			if got := after.Count[cls] - before.Count[cls]; got != 1 {
				t.Fatalf("reader's miss counted %d times as %s, want 1", got, proto.MissClassNames[cls])
			}
			hops := func(x, y topo.Tile) int { return g.Hops(x, y) }
			supplier := a
			want := hops(reader, home) + hops(home, a) + hops(a, reader)
			if race {
				supplier = b
				want = hops(reader, home) + 2*hops(home, a) + hops(home, b) + hops(b, reader)
			}
			if got := int(after.Links[cls] - before.Links[cls]); got != want {
				t.Errorf("reader's miss took %d links, want %d (supplied by sharer %d)", got, want, supplier)
			}
			holders := map[topo.Tile]bool{}
			c.Engine.ForEachCopy(addr, func(ci proto.CopyInfo) { holders[ci.Tile] = true })
			if !holders[reader] || !holders[b] || holders[a] == race {
				t.Errorf("holders of %#x after the forward: %v", addr, holders)
			}
		})
	}
}

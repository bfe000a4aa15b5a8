package proto

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ref is one reference of a miss-path round.
type ref struct {
	tile  topo.Tile
	addr  cache.Addr
	write bool
}

// cycle returns a closure that runs the next of rounds on each call,
// each reference to completion before the next issues. All closures
// are built once so the loop itself measures only the protocol hot
// path.
func cycle(eng Engine, kernel *sim.Kernel, fail func(string), rounds ...[]ref) func() {
	turn := 0
	completed := false
	done := func() { completed = true }
	cond := func() bool { return completed }
	return func() {
		for _, r := range rounds[turn%len(rounds)] {
			completed = false
			eng.Access(r.tile, r.addr, r.write, done)
			kernel.RunUntil(cond)
			if !completed {
				fail(fmt.Sprintf("miss (tile %d, addr %#x, write %v) never completed", r.tile, r.addr, r.write))
			}
		}
		turn++
	}
}

// pingPong alternates an exclusive write to one block between two
// distant tiles: every round is a full coherence miss (invalidate the
// old owner, move the data) with no DRAM involvement after the first
// touch.
func pingPong(eng Engine, kernel *sim.Kernel, fail func(string)) func() {
	const addr cache.Addr = 0x5100
	return cycle(eng, kernel, fail, []ref{{4, addr, true}}, []ref{{59, addr, true}})
}

// readShare alternates the writer of one block between two tiles of
// one area, and after each write two more tiles of that area read it:
// every round invalidates two sharers (their acks ride the write's
// data) and serves two cache-to-cache read misses.
func readShare(eng Engine, kernel *sim.Kernel, fail func(string)) func() {
	const addr cache.Addr = 0x5100
	g := topo.SquareGrid(64)
	w0, w1, r0, r1 := g.At(0, 0), g.At(3, 3), g.At(1, 2), g.At(2, 0)
	return cycle(eng, kernel, fail,
		[]ref{{w0, addr, true}, {r0, addr, false}, {r1, addr, false}},
		[]ref{{w1, addr, true}, {r0, addr, false}, {r1, addr, false}})
}

// memRefetch has one tile read three blocks of one home in turn on a
// chip with one-line L1s and L2 banks: each read displaces the previous
// block from the L1 and the one before from the L2, so every round
// fetches its block from memory again.
func memRefetch(c *testChip, fail func(string)) func() {
	home := topo.Tile(9)
	base := pickBlock(c, home)
	var rounds [][]ref
	for i := 0; i < 3; i++ {
		rounds = append(rounds, []ref{{20, base + cache.Addr(64*i), false}})
	}
	return cycle(c.eng, c.kernel, fail, rounds...)
}

// memRefetchConfig is memRefetch's chip: one-line L1s and L2 banks, and
// coherence caches large enough that no directory entry or owner
// pointer of the three blocks is ever displaced.
func memRefetchConfig() Config {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 1, 1
	cfg.L2Sets, cfg.L2Ways = 1, 1
	cfg.CCSets, cfg.CCWays = 1, 4
	return cfg
}

// evictRound has two tiles of one area read three blocks of one home in
// turn on a chip with one-line L2 banks and one-entry coherence caches
// (evictRoundConfig), so every round's first miss evicts a block that
// both tiles hold. In the directory the miss is untracked and evicts
// the LRU of the home's two directory entries, two blocks back. In the
// DiCo family it displaces the previous block's L2C$ pointer; the
// recall lands that block in the L2 in the owner form, which evicts
// the block before it: DiCo and DiCo-Arin invalidate its tracked
// sharers, DiCo-Providers its provider, which invalidates its sharer.
func evictRound(c *testChip, fail func(string)) func() {
	g := c.ctx.Net.Grid()
	home := g.At(4, 4)
	base := pickBlock(c, home)
	t0, t1 := g.At(5, 5), g.At(6, 7)
	var rounds [][]ref
	for i := 0; i < 3; i++ {
		a := base + cache.Addr(64*i)
		rounds = append(rounds, []ref{{t0, a, false}, {t1, a, false}})
	}
	return cycle(c.eng, c.kernel, fail, rounds...)
}

// evictRoundConfig is evictRound's chip: one-line L2 banks, one-entry
// L1C$s and L2C$s, and so two-way directory sets.
func evictRoundConfig() Config {
	cfg := DefaultConfig()
	cfg.L2Sets, cfg.L2Ways = 1, 1
	cfg.CCSets, cfg.CCWays = 1, 1
	return cfg
}

// oneLineL1Config is a chip whose L1s hold one line, so a tile's every
// new block evicts its last one.
func oneLineL1Config() Config {
	cfg := DefaultConfig()
	cfg.L1Sets, cfg.L1Ways = 1, 1
	return cfg
}

// ownerHandover has an owner and two sharers of its area take turns on
// two blocks with one-line L1s: the owner's write of one block evicts
// the other while both sharers hold it, so its ownership is offered
// and taken by the first sharer (Change_Owner to the home, its ack,
// and a hint to the second); each sharer's read then evicts the old
// block in turn, handing its ownership on or writing it back.
func ownerHandover(c *testChip, fail func(string)) func() {
	g := c.ctx.Net.Grid()
	o, s1, s2 := g.At(0, 0), g.At(1, 0), g.At(0, 1)
	const x, y cache.Addr = 0x5100, 0x5200
	return cycle(c.eng, c.kernel, fail,
		[]ref{{o, x, true}, {s1, x, false}, {s2, x, false}},
		[]ref{{o, y, true}, {s1, y, false}, {s2, y, false}})
}

// providerHandover has an owner O in one area and a provider P and its
// sharer S in another take turns on two blocks with one-line L1s. O's
// write of the next block writes the last one back home with P's
// pointer; P's read then evicts it, so providership is offered to S,
// which takes it and sends Change_Provider to O's stale hint, then on
// through the home to the home's L2 line. S's read of the next block
// evicts it again: No_Provider through the home.
func providerHandover(c *testChip, fail func(string)) func() {
	g := c.ctx.Net.Grid()
	o, p, s := g.At(0, 0), g.At(7, 0), g.At(6, 1)
	const x, y cache.Addr = 0x5100, 0x5200
	return cycle(c.eng, c.kernel, fail,
		[]ref{{o, x, true}, {p, x, false}}, []ref{{s, x, false}},
		[]ref{{o, y, true}, {p, y, false}}, []ref{{s, y, false}})
}

// bcastWrite has a reader in the writer's area and one in another area
// share a block, which in DiCo-Arin turns it inter-area; the write then
// invalidates by broadcast, collects every tile's ack and broadcasts
// the unblock.
func bcastWrite(eng Engine, kernel *sim.Kernel, fail func(string)) func() {
	g := topo.SquareGrid(64)
	const addr cache.Addr = 0x5100
	return cycle(eng, kernel, fail, []ref{{g.At(1, 1), addr, false}, {g.At(6, 6), addr, false}, {g.At(0, 0), addr, true}})
}

// stallBehindMiss issues a write and, before it completes, a read of the
// same block at the same tile: the read stalls behind the miss and
// retires as a hit once it wakes. Two tiles take turns, so every write
// misses.
func stallBehindMiss(eng Engine, kernel *sim.Kernel, fail func(string)) func() {
	const addr cache.Addr = 0x5100
	tiles := [2]topo.Tile{4, 59}
	turn, left := 0, 0
	done := func() { left-- }
	cond := func() bool { return left == 0 }
	return func() {
		tile := tiles[turn%2]
		turn++
		left = 2
		eng.Access(tile, addr, true, done)
		eng.Access(tile, addr, false, done)
		kernel.RunUntil(cond)
		if left != 0 {
			fail(fmt.Sprintf("tile %d: %d accesses never completed", tile, left))
		}
	}
}

// TestMissPathNoAllocs gates the steady-state miss path of every
// protocol engine: once the transaction tables, MSHRs, message pools
// and the kernel's node arena have warmed up, an owner transfer, a
// round of read sharing with its invalidations, a memory refetch
// through conflict evictions, an eviction that invalidates a block's
// copies, an owner's and a provider's handover to a sharer, a
// broadcast write and an access stalled behind a miss must not
// allocate.
func TestMissPathNoAllocs(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			fail := func(m string) { t.Fatal(m) }
			c := newTestChip(t, e.mk)
			mc := newTestChipSized(t, e.mk, 64, 4, memRefetchConfig())
			ec := newTestChipSized(t, e.mk, 64, 4, evictRoundConfig())
			oc := newTestChipSized(t, e.mk, 64, 4, oneLineL1Config())
			pc := newTestChipSized(t, e.mk, 64, 4, oneLineL1Config())
			for _, leg := range []struct {
				name string
				trip func()
			}{
				{"ping-pong", pingPong(c.eng, c.kernel, fail)},
				{"read-share", readShare(c.eng, c.kernel, fail)},
				{"mem-refetch", memRefetch(mc, fail)},
				{"evict", evictRound(ec, fail)},
				{"owner-handover", ownerHandover(oc, fail)},
				{"provider-handover", providerHandover(pc, fail)},
				{"bcast-write", bcastWrite(c.eng, c.kernel, fail)},
				{"stall", stallBehindMiss(c.eng, c.kernel, fail)},
			} {
				for i := 0; i < 64; i++ {
					leg.trip()
				}
				if avg := testing.AllocsPerRun(200, leg.trip); avg != 0 {
					t.Errorf("%s round allocates %.2f/op, want 0", leg.name, avg)
				}
			}
			for _, tc := range []*testChip{c, mc, ec, oc, pc} {
				tc.drain()
			}
		})
	}
}

// TestMissPathLegsTakeTheirPaths checks, on a fresh chip, that the
// allocation gate's handover, broadcast and stall legs run the
// protocol actions they are named for.
func TestMissPathLegsTakeTheirPaths(t *testing.T) {
	fail := func(m string) { t.Fatal(m) }
	steps := func(c *testChip, trip func(), n int) map[string]int {
		tr := c.attachTracer(c.eng.Name())
		for i := 0; i < n; i++ {
			trip()
		}
		c.ctx.Spans = nil
		c.ctx.Net.SetObserver(nil)
		seen := map[string]int{}
		for _, s := range tr.Spans() {
			for _, ev := range s.Events {
				seen[ev.Name]++
			}
		}
		return seen
	}
	for _, e := range allEngines[1:] {
		oc := newTestChipSized(t, e.mk, 64, 4, oneLineL1Config())
		if got := steps(oc, ownerHandover(oc, fail), 4)["transfer-accepted"]; got == 0 {
			t.Errorf("%s owner-handover: no ownership transfer accepted", e.name)
		}
	}
	arin := newTestChip(t, allEngines[3].mk)
	if got := steps(arin, bcastWrite(arin.eng, arin.kernel, fail), 2); got["bcast-inv"] != 2 || got["bcast-unblock"] != 2 {
		t.Errorf("arin bcast-write: steps %v, want a broadcast invalidation and unblock per round", got)
	}
	// Providers: after O's write of y and P's read, S provides x, and the
	// home L2 line of x names S as its area's provider.
	pc := newTestChipSized(t, allEngines[2].mk, 64, 4, oneLineL1Config())
	trip := providerHandover(pc, fail)
	for i := 0; i < 3; i++ {
		trip()
	}
	pc.drain()
	g := pc.ctx.Net.Grid()
	pv := pc.eng.(*Providers)
	s, x := g.At(6, 1), cache.Addr(0x5100)
	if l := pv.tiles[s].l1.Peek(x); l == nil || l.State != dcProvider {
		t.Errorf("providers provider-handover: S holds x as %+v, want the provider", l)
	}
	home := pc.ctx.HomeOf(x)
	if l2 := pv.tiles[home].l2.Peek(x); l2 == nil || l2.ProPos[pv.areaOf(s)] != pv.areaIdx(s) {
		t.Errorf("providers provider-handover: home L2 line of x %+v does not name S", l2)
	}
	// An access issued behind a miss in flight stalls at its L1.
	for _, e := range allEngines {
		c := newTestChip(t, e.mk)
		c.eng.Access(4, 0x5100, true, func() {})
		c.eng.Access(4, 0x5100, false, func() {})
		waiters := 0
		c.eng.(interface{ forEachWaiter(func(int, *waiter)) }).forEachWaiter(func(int, *waiter) { waiters++ })
		if waiters != 1 {
			t.Errorf("%s stall: %d L1 waiters, want 1", e.name, waiters)
		}
		c.drain()
	}
}

// BenchmarkMissPath times one coherence miss round trip per iteration
// on each protocol (see pingPong). Run with -benchmem to watch the
// allocation gate, or with the bench tool's -cpuprofile for a
// flame-level view of the protocol hot path.
func BenchmarkMissPath(b *testing.B) {
	for _, e := range allEngines {
		b.Run(e.name, func(b *testing.B) {
			kernel := sim.NewKernel(7)
			grid := topo.SquareGrid(64)
			net := mesh.New(kernel, grid, mesh.DefaultConfig())
			ar := topo.MustAreas(grid, 4)
			mem := memctrl.Default(grid, kernel.Rand().Fork())
			ctx := &Context{Kernel: kernel, Net: net, Areas: ar, Mem: mem, Cfg: DefaultConfig()}
			eng := e.mk(ctx)
			trip := pingPong(eng, kernel, func(m string) { b.Fatal(m) })
			trip() // cold DRAM fill out of the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trip()
			}
		})
	}
}

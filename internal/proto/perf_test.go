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

// TestMissPathNoAllocs gates the steady-state miss path of every
// protocol engine: once the transaction tables, MSHRs, message pools
// and the kernel's node arena have warmed up, an owner transfer, a
// round of read sharing with its invalidations, a memory refetch
// through conflict evictions, and an eviction that invalidates a
// block's copies must not allocate.
func TestMissPathNoAllocs(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			fail := func(m string) { t.Fatal(m) }
			c := newTestChip(t, e.mk)
			mc := newTestChipSized(t, e.mk, 64, 4, memRefetchConfig())
			ec := newTestChipSized(t, e.mk, 64, 4, evictRoundConfig())
			for _, leg := range []struct {
				name string
				trip func()
			}{
				{"ping-pong", pingPong(c.eng, c.kernel, fail)},
				{"read-share", readShare(c.eng, c.kernel, fail)},
				{"mem-refetch", memRefetch(mc, fail)},
				{"evict", evictRound(ec, fail)},
			} {
				for i := 0; i < 64; i++ {
					leg.trip()
				}
				if avg := testing.AllocsPerRun(200, leg.trip); avg != 0 {
					t.Errorf("%s round allocates %.2f/op, want 0", leg.name, avg)
				}
			}
			c.drain()
			mc.drain()
			ec.drain()
		})
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

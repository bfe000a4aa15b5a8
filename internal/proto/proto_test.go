package proto

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/topo"
)

// testChip wires a small chip for protocol unit tests.
type testChip struct {
	kernel *sim.Kernel
	ctx    *Context
	eng    Engine
	t      *testing.T
}

// engineMaker builds an engine on a context; the protocol test
// functions are written once and run against all four engines where
// the behaviour is common.
type engineMaker func(*Context) Engine

func newTestChip(t *testing.T, mk engineMaker) *testChip {
	return newTestChipSized(t, mk, 64, 4, DefaultConfig())
}

func newTestChipSized(t *testing.T, mk engineMaker, tiles, areas int, cfg Config) *testChip {
	t.Helper()
	kernel := sim.NewKernel(7)
	grid := topo.SquareGrid(tiles)
	net := mesh.New(kernel, grid, mesh.DefaultConfig())
	ar := topo.MustAreas(grid, areas)
	mem := memctrl.Default(grid, kernel.Rand().Fork())
	ctx := &Context{Kernel: kernel, Net: net, Areas: ar, Mem: mem, Cfg: cfg}
	return &testChip{kernel: kernel, ctx: ctx, eng: mk(ctx), t: t}
}

// access runs one reference to completion and returns its latency.
func (c *testChip) access(tile topo.Tile, addr cache.Addr, write bool) sim.Time {
	c.t.Helper()
	start := c.kernel.Now()
	done := false
	c.eng.Access(tile, addr, write, func() { done = true })
	c.kernel.RunUntil(func() bool { return done })
	if !done {
		c.t.Fatalf("access (tile %d, addr %#x, write %v) never completed", tile, addr, write)
	}
	end := c.kernel.Now()
	c.drain()
	return end - start
}

// drain runs all residual events (writebacks, dir updates) so
// invariants can be checked at quiescence.
func (c *testChip) drain() {
	c.t.Helper()
	c.kernel.Run(0)
	c.eng.CheckInvariants()
}

// parallelAccess issues one access per (tile, addr) pair concurrently
// and runs to global completion.
func (c *testChip) parallelAccess(reqs []struct {
	tile  topo.Tile
	addr  cache.Addr
	write bool
}) {
	c.t.Helper()
	remaining := len(reqs)
	for _, r := range reqs {
		c.eng.Access(r.tile, r.addr, r.write, func() { remaining-- })
	}
	c.kernel.RunUntil(func() bool { return remaining == 0 })
	if remaining != 0 {
		c.t.Fatalf("%d parallel accesses never completed", remaining)
	}
	c.drain()
}

// allEngines lists the four protocol constructors for table-driven
// cross-protocol tests.
var allEngines = []struct {
	name string
	mk   engineMaker
}{
	{"directory", func(ctx *Context) Engine { return NewDirectory(ctx) }},
	{"dico", func(ctx *Context) Engine { return NewDiCo(ctx) }},
	{"providers", func(ctx *Context) Engine { return NewProviders(ctx) }},
	{"arin", func(ctx *Context) Engine { return NewArin(ctx) }},
}

// TestNewEngine checks that every protocol name builds its own engine
// and that an unknown name is an error.
func TestNewEngine(t *testing.T) {
	for _, e := range allEngines {
		c := newTestChip(t, func(ctx *Context) Engine {
			eng, err := NewEngine(e.name, ctx)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		})
		if got := c.eng.Name(); got != e.name {
			t.Errorf("NewEngine(%q) built %s", e.name, got)
		}
		c.access(3, 0x40, true)
	}
	if eng, err := NewEngine("mesi", &Context{}); err == nil {
		t.Errorf("NewEngine(\"mesi\") = %v, want an error", eng)
	}
}

// TestCommonReadAfterWrite checks on every protocol that a reader on a
// far tile observes a block after a writer elsewhere modified it, with
// no invariant violations at quiescence.
func TestCommonReadAfterWrite(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			const addr cache.Addr = 0x1234
			c.access(5, addr, true)
			c.access(60, addr, false)
			c.access(5, addr, false) // writer reads its own block back
		})
	}
}

// TestCommonHitLatency checks that an L1 hit costs exactly the Table
// III latency on every protocol.
func TestCommonHitLatency(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			const addr cache.Addr = 0x40
			c.access(3, addr, false) // warm
			lat := c.access(3, addr, false)
			if lat != c.ctx.Cfg.L1HitLatency {
				t.Errorf("hit latency = %d, want %d", lat, c.ctx.Cfg.L1HitLatency)
			}
			p := c.eng.MissProfile()
			if p.Hits == 0 {
				t.Error("hit not recorded in profile")
			}
		})
	}
}

// TestIssueHitContract pins the Issue/Access split on every protocol:
// on a warm L1 hit Issue accounts the hit, schedules nothing and
// leaves onDone to the caller, while Access schedules exactly one
// event that calls onDone at lookup + L1HitLatency. A miss through
// Issue retires through onDone.
func TestIssueHitContract(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			const addr cache.Addr = 0x40
			c.access(3, addr, true) // warm, writable
			for _, write := range []bool{false, true} {
				hits, pending := c.eng.MissProfile().Hits, c.kernel.Pending()
				if !c.eng.Issue(3, addr, write, func() { t.Errorf("write=%v: Issue called onDone on a hit", write) }) {
					t.Fatalf("write=%v: Issue missed on a warm block", write)
				}
				if got := c.kernel.Pending(); got != pending {
					t.Errorf("write=%v: Issue hit left %d events pending, want %d", write, got, pending)
				}
				if got := c.eng.MissProfile().Hits; got != hits+1 {
					t.Errorf("write=%v: Issue hit counted %d hits, want %d", write, got-hits, 1)
				}

				start := c.kernel.Now()
				var doneAt sim.Time
				calls := 0
				c.eng.Access(3, addr, write, func() { calls++; doneAt = c.kernel.Now() })
				if got := c.kernel.Pending(); got != pending+1 {
					t.Errorf("write=%v: Access hit left %d events pending, want %d", write, got, pending+1)
				}
				c.kernel.Run(0)
				if calls != 1 || doneAt != start+c.ctx.Cfg.L1HitLatency {
					t.Errorf("write=%v: Access hit called onDone %d times, at %d; want once at %d",
						write, calls, doneAt, start+c.ctx.Cfg.L1HitLatency)
				}
			}

			retired := false
			if c.eng.Issue(9, 0x5555, false, func() { retired = true }) {
				t.Fatal("Issue reported a cold block as a hit")
			}
			c.kernel.RunUntil(func() bool { return retired })
			if !retired {
				t.Fatal("missed Issue never called onDone")
			}
			c.drain()
		})
	}
}

// TestCommonMemoryLatency checks a cold miss pays the DRAM latency.
func TestCommonMemoryLatency(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			lat := c.access(10, 0x999, false)
			if lat < 300 {
				t.Errorf("cold miss latency = %d, want >= 300 (DRAM)", lat)
			}
		})
	}
}

// TestCommonWriteInvalidatesSharers: after many tiles read a block and
// one writes it, re-reads by the old sharers must miss (they were
// invalidated) — observable via the profile's miss count.
func TestCommonWriteInvalidatesSharers(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			const addr cache.Addr = 0x2000
			readers := []topo.Tile{1, 2, 3, 17, 33, 49}
			for _, r := range readers {
				c.access(r, addr, false)
			}
			missesBefore := c.eng.MissProfile().TotalMisses()
			c.access(9, addr, true)
			// Every old sharer must re-miss.
			for _, r := range readers {
				c.access(r, addr, false)
			}
			missesAfter := c.eng.MissProfile().TotalMisses()
			newMisses := missesAfter - missesBefore
			if newMisses < uint64(len(readers)) {
				t.Errorf("only %d new misses after invalidating write; want >= %d",
					newMisses, len(readers))
			}
		})
	}
}

// TestCommonWriteSerializesOwnership: concurrent writers to one block
// from many tiles must end with a single owner and no stale copies.
func TestCommonWriteSerializesOwnership(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			const addr cache.Addr = 0x3000
			var reqs []struct {
				tile  topo.Tile
				addr  cache.Addr
				write bool
			}
			for _, tile := range []topo.Tile{0, 7, 21, 35, 42, 63} {
				reqs = append(reqs, struct {
					tile  topo.Tile
					addr  cache.Addr
					write bool
				}{tile, addr, true})
			}
			c.parallelAccess(reqs)
		})
	}
}

// TestCommonMixedConcurrent stresses racy interleavings of reads and
// writes across several blocks (invariants checked at quiescence).
func TestCommonMixedConcurrent(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			rng := sim.NewRand(99)
			var reqs []struct {
				tile  topo.Tile
				addr  cache.Addr
				write bool
			}
			for i := 0; i < 64; i++ {
				reqs = append(reqs, struct {
					tile  topo.Tile
					addr  cache.Addr
					write bool
				}{topo.Tile(i), cache.Addr(0x4000 + uint64(rng.Intn(8))), rng.Intn(4) == 0})
			}
			c.parallelAccess(reqs)
		})
	}
}

// TestCommonRandomSoak drives a random reference stream sequentially
// per tile and checks invariants after each batch.
func TestCommonRandomSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			rng := sim.NewRand(123)
			for batch := 0; batch < 20; batch++ {
				var reqs []struct {
					tile  topo.Tile
					addr  cache.Addr
					write bool
				}
				for i := 0; i < 96; i++ {
					reqs = append(reqs, struct {
						tile  topo.Tile
						addr  cache.Addr
						write bool
					}{topo.Tile(rng.Intn(64)), cache.Addr(rng.Intn(64)*64 + rng.Intn(16)), rng.Intn(3) == 0})
				}
				c.parallelAccess(reqs)
			}
		})
	}
}

// TestCommonCapacityEvictions forces L1 evictions with a tiny cache
// and checks the replacement protocols keep the system coherent.
func TestCommonCapacityEvictions(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.L1Sets, cfg.L1Ways = 2, 2 // 4-line L1
			c := newTestChipSized(t, e.mk, 64, 4, cfg)
			// Walk far more blocks than fit, with writes mixed in, on
			// two tiles that share some blocks.
			for i := 0; i < 24; i++ {
				addr := cache.Addr(0x100 + uint64(i))
				c.access(1, addr, i%3 == 0)
				if i%2 == 0 {
					c.access(2, addr, false)
				}
			}
		})
	}
}

// TestCommonL2CapacityEvictions forces L2/directory-entry evictions.
func TestCommonL2CapacityEvictions(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.L2Sets, cfg.L2Ways = 2, 2
			cfg.CCSets, cfg.CCWays = 2, 2
			c := newTestChipSized(t, e.mk, 64, 4, cfg)
			// Blocks all homed at tile 0 to pressure one bank: stride
			// by the tile count.
			for i := 0; i < 24; i++ {
				addr := cache.Addr(uint64(i) * 64)
				c.access(1, addr, i%4 == 0)
				c.access(33, addr, false)
			}
		})
	}
}

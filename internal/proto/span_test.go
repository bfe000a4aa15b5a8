package proto

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// attachTracer wires a span tracer into an already-built test chip:
// the engine attributes via ctx.Spans, the mesh via the observer tap.
func (c *testChip) attachTracer(name string) *telemetry.Tracer {
	tr := telemetry.NewTracer(c.kernel, name, c.ctx.Net.Grid().Tiles(), 0)
	c.ctx.Spans = tr
	c.ctx.Net.SetObserver(tr)
	return tr
}

// TestSpanPerMiss requires exactly one span per L1 miss on every
// protocol, all closed at quiescence with a miss class recorded, and
// hop timestamps inside the span window (late traffic excluded).
func TestSpanPerMiss(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			tr := c.attachTracer(e.name)
			const addr cache.Addr = 0x2480
			c.access(5, addr, true)   // cold write miss
			c.access(60, addr, false) // remote read miss
			c.access(5, addr, false)  // read back (miss or hit depending on protocol)
			c.access(60, addr, false) // hit: must NOT open a span

			spans := tr.Spans()
			if len(spans) < 2 || len(spans) > 3 {
				t.Fatalf("%d spans for 2-3 misses + 1 hit", len(spans))
			}
			if tr.OpenSpans() != 0 {
				t.Fatalf("%d spans still open at quiescence", tr.OpenSpans())
			}
			for i, s := range spans {
				if !s.Closed() || s.Class == "" {
					t.Errorf("span %d: closed=%v class=%q", i, s.Closed(), s.Class)
				}
				if s.End < s.Start {
					t.Errorf("span %d: end %d before start %d", i, s.End, s.Start)
				}
				if len(s.Hops) == 0 {
					t.Errorf("span %d recorded no messages for a miss", i)
				}
				for _, h := range s.Hops {
					if !h.Late && (h.Depart < s.Start || h.Depart > s.End) {
						t.Errorf("span %d: pre-retire hop departs at %d outside [%d, %d]", i, h.Depart, s.Start, s.End)
					}
				}
			}
			if spans[0].Tile != 5 || !spans[0].Write || spans[1].Tile != 60 || spans[1].Write {
				t.Errorf("span attribution wrong: %+v / %+v", spans[0], spans[1])
			}
		})
	}
}

// TestSpanRetriesReuseSpan hammers one address from many tiles at
// once: transient-state NACKs force retries, and every retry must fold
// into its miss's single span as an annotation — the span count stays
// exactly one per access, no span leaks open, and dropped fills (read
// fills invalidated while pending) close with the Dropped mark.
func TestSpanRetriesReuseSpan(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			c := newTestChip(t, e.mk)
			tr := c.attachTracer(e.name)
			const addr cache.Addr = 0x91c0
			var reqs []struct {
				tile  topo.Tile
				addr  cache.Addr
				write bool
			}
			for i := 0; i < 24; i++ {
				reqs = append(reqs, struct {
					tile  topo.Tile
					addr  cache.Addr
					write bool
				}{topo.Tile(i * 2), addr, i%2 == 0})
			}
			c.parallelAccess(reqs)

			spans := tr.Spans()
			if len(spans) != len(reqs) {
				t.Fatalf("%d spans for %d conflicting accesses — retries must reuse spans, not open new ones", len(spans), len(reqs))
			}
			if tr.OpenSpans() != 0 {
				t.Fatalf("%d spans leaked open after NACK/retry storm", tr.OpenSpans())
			}
			retries := 0
			for i, s := range spans {
				if !s.Closed() || s.Class == "" {
					t.Errorf("span %d not cleanly closed (class %q)", i, s.Class)
				}
				retries += s.Retries
				// Retry annotations and the counter must agree.
				annotated := 0
				for _, ev := range s.Events {
					if ev.Name == "retry" {
						annotated++
					}
				}
				if annotated != s.Retries {
					t.Errorf("span %d: %d retry annotations vs Retries=%d", i, annotated, s.Retries)
				}
				if s.Dropped && s.Write {
					t.Errorf("span %d: write marked as dropped fill", i)
				}
			}
			if retries == 0 {
				t.Errorf("conflict storm produced no retries — test not exercising the NACK path")
			}
		})
	}
}

// TestSpanChainGoldens pins the causal chain-length distributions of
// all four protocols on a deterministic producer-consumer ping-pong —
// the sharing pattern behind the paper's 2-hop vs 3-hop argument. The
// producer's writes invalidate the consumer and train its L1C$ to
// point at the producer, so in the DiCo family the consumer's next
// read predicts its supplier directly (2-chain) while the directory
// protocol indirects every read through the home tile (3-chain). The
// acceptance bar: directory shows strictly more 3+-chain transactions
// than every DiCo variant.
func TestSpanChainGoldens(t *testing.T) {
	const (
		rounds            = 8
		addr   cache.Addr = 0x35c0
	)
	producer, consumer := topo.Tile(0), topo.Tile(12)
	reports := map[string]*telemetry.HopReport{}
	for _, e := range allEngines {
		c := newTestChipSized(t, e.mk, 16, 4, DefaultConfig())
		// Warm untraced: first touches are cold memory fetches in every
		// protocol and would swamp the steady-state sharing signal.
		for i := 0; i < 4; i++ {
			c.access(producer, addr, true)
			c.access(consumer, addr, false)
		}
		tr := c.attachTracer(e.name)
		for i := 0; i < rounds; i++ {
			c.access(producer, addr, true)
			c.access(consumer, addr, false)
		}
		rep := telemetry.Analyze(tr, c.ctx.Net.Config().DataFlits)
		if rep.Open != 0 || rep.Dropped != 0 {
			t.Fatalf("%s: open=%d dropped=%d after drained ping-pong", e.name, rep.Open, rep.Dropped)
		}
		reports[e.name] = rep
		t.Logf("%s: spans=%d chain=%v mean=%.2f 3+share=%.2f",
			e.name, rep.Spans, rep.Chain, rep.MeanChain(), rep.IndirectionShare())
	}

	threePlus := func(r *telemetry.HopReport) int {
		n := 0
		for c := 3; c < len(r.Chain); c++ {
			n += r.Chain[c]
		}
		return n
	}
	dir := reports["directory"]
	if threePlus(dir) == 0 {
		t.Fatalf("directory ping-pong shows no 3+-chain transactions: %v", dir.Chain)
	}
	for _, name := range []string{"dico", "providers", "arin"} {
		r := reports[name]
		if threePlus(dir) <= threePlus(r) {
			t.Errorf("directory 3+-chains (%d) not greater than %s (%d) — indirection signal lost (dir %v vs %v)",
				threePlus(dir), name, threePlus(r), dir.Chain, r.Chain)
		}
		if r.Chain[2] == 0 {
			t.Errorf("%s ping-pong shows no 2-chain transactions — prediction never hit (%v)", name, r.Chain)
		}
		if r.MeanChain() >= dir.MeanChain() {
			t.Errorf("%s mean chain %.2f not shorter than directory's %.2f",
				name, r.MeanChain(), dir.MeanChain())
		}
	}
}

// stepsIn returns the protocol steps named name recorded in the spans
// of misses on block addr.
func stepsIn(tr *telemetry.Tracer, addr cache.Addr, name string) []telemetry.Event {
	var out []telemetry.Event
	for _, s := range tr.Spans() {
		if s.Addr != uint64(addr) {
			continue
		}
		for _, ev := range s.Events {
			if ev.Name == name {
				out = append(out, ev)
			}
		}
	}
	return out
}

// TestSpanAnnotationsNameTheirBlock requires the steps a miss causes
// on other blocks to land in that miss's span and name the block they
// acted on: the L1 victim its fill evicts, and the home-side
// displacement its new owner pointer causes — the directory's entry
// eviction, or the DiCo family's L2C$ recall and the relinquish it
// triggers at the old owner.
func TestSpanAnnotationsNameTheirBlock(t *testing.T) {
	one := func(t *testing.T, got []telemetry.Event, what string, addr cache.Addr, tile topo.Tile) {
		t.Helper()
		if len(got) != 1 || got[0].Addr != uint64(addr) || got[0].Tile != tile {
			t.Errorf("%s: %+v, want one step at tile %d on block %#x", what, got, tile, addr)
		}
	}
	for _, e := range allEngines {
		t.Run(e.name, func(t *testing.T) {
			// A one-set, two-way L1 evicts its LRU block when the
			// third block fills.
			cfg := DefaultConfig()
			cfg.L1Sets, cfg.L1Ways = 1, 2
			c := newTestChipSized(t, e.mk, 64, 4, cfg)
			tr := c.attachTracer(e.name)
			a := []cache.Addr{0x100, 0x101, 0x102}
			for _, addr := range a {
				c.access(5, addr, true)
			}
			one(t, stepsIn(tr, a[2], "fill"), "fill in the third miss's span", a[2], 5)
			one(t, stepsIn(tr, a[2], "evict"), "evict in the third miss's span", a[0], 5)

			// Blocks homed at one bank, each written by a new owner,
			// overflow a one-entry L2C$ or a two-entry directory (one L2
			// way plus one directory-cache way).
			cfg = DefaultConfig()
			cfg.CCSets, cfg.CCWays = 1, 1
			if e.name == "directory" {
				cfg.L2Sets, cfg.L2Ways = 1, 1
			}
			c = newTestChipSized(t, e.mk, 64, 4, cfg)
			tr = c.attachTracer(e.name)
			home := topo.Tile(5)
			var b []cache.Addr
			for i := 0; i < 3; i++ {
				b = append(b, pickBlock(c, home)+cache.Addr(64*i))
				c.access(topo.Tile(10+i), b[i], true)
			}
			if e.name == "directory" {
				one(t, stepsIn(tr, b[2], "dir-evict"), "dir-evict in the third miss's span", b[0], home)
				return
			}
			one(t, stepsIn(tr, b[1], "recall"), "recall in the second miss's span", b[0], home)
			one(t, stepsIn(tr, b[1], "relinquish"), "relinquish in the second miss's span", b[0], 10)
		})
	}
}

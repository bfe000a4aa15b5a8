package cache_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/topo"
)

// BenchmarkArrayReplay replays a seeded 64-tile reference stream
// through Table III arrays with no protocol around them: each access
// looks up its tile's L1 and, on a miss, fills it (Probe then Fill)
// and does the same at its home's banked L2. It isolates the arrays'
// hit path (tag compare and LRU update) from the end-to-end run's
// host noise. mixed-sci is L1-resident, so it times mostly L1 hits;
// jbb4x16p adds L1 fills and L2 traffic. Code layout alone moves its
// ns/access by up to 20%: compare two commits over several builds
// (EXPERIMENTS.md).
func BenchmarkArrayReplay(b *testing.B) {
	for _, bc := range []struct{ name, workload string }{{"sci", "mixed-sci"}, {"jbb", "jbb4x16p"}} {
		b.Run(bc.name, func(b *testing.B) { replay(b, bc.workload) })
	}
}

func replay(b *testing.B, wl string) {
	const refsPerTile = 8000
	cfg := core.DefaultConfig()
	cfg.Workload = wl
	sys, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tiles := cfg.Tiles
	stream := make([]cache.Addr, 0, refsPerTile*tiles)
	for i := 0; i < refsPerTile; i++ {
		for t := 0; t < tiles; t++ {
			stream = append(stream, sys.Gen.Next(topo.Tile(t)).Addr)
		}
	}
	bankShift := uint(0)
	for 1<<bankShift < tiles {
		bankShift++
	}
	l1 := make([]*cache.Cache, tiles)
	l2 := make([]*cache.Cache, tiles)
	for t := range l1 {
		l1[t] = cache.New("l1", cfg.Proto.L1Sets, cfg.Proto.L1Ways)
		l2[t] = cache.New("l2", cfg.Proto.L2Sets, cfg.Proto.L2Ways)
		l2[t].SetIndexShift(bankShift)
	}
	mask := tiles - 1 // tiles is a power of two: the stream is tile-interleaved
	access := func(i int) {
		a := stream[i]
		c := l1[i&mask]
		if c.Lookup(a) != nil {
			return
		}
		l, _, _ := c.Probe(a)
		c.Fill(l, a, 1)
		if h := l2[int(a)&mask]; h.Lookup(a) == nil {
			l, _, _ := h.Probe(a)
			h.Fill(l, a, 1)
		}
	}
	for i := range stream { // warm the arrays with one pass
		access(i)
	}
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		access(j)
		if j++; j == len(stream) {
			j = 0
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

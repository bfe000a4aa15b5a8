package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// probeSizes bound the isolated layer probes. Each probe is timed in
// Chunks equal chunks and reports the median chunk.
type probeSizes struct {
	RefsPerTile int // workload stream captured per tile
	Chunks      int
	Events      int // kernel events per chunk
	Misses      int // protocol round trips per engine per chunk
}

var defaultProbes = probeSizes{RefsPerTile: 2100, Chunks: 7, Events: 300_000, Misses: 3000}

// miss is one L1 miss of the replayed stream.
type miss struct {
	tile topo.Tile
	addr cache.Addr
}

// chunkTimer records the host time per operation of each chunk.
type chunkTimer []float64

func (c *chunkTimer) time(ops int, fn func()) {
	t := time.Now()
	fn()
	*c = append(*c, ratio(float64(time.Since(t).Nanoseconds()), float64(ops)))
}

// runProbes times calls into each layer's public functions in
// isolation, on inputs taken from the workload's own seeded stream:
// the stream is captured with Generator.Next, replayed through
// L1-geometry caches, and the resulting misses are sent from their
// tile to their home bank on a bare mesh and driven as coherence
// misses through each engine.
func runProbes(s spec, seed uint64, ps probeSizes) (map[string]stat, error) {
	cfg := s.config(core.ProtocolNames[0], seed)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	out := map[string]stat{}
	tiles := cfg.Tiles
	per := ps.RefsPerTile / ps.Chunks
	if per < 1 {
		per = 1
	}

	stream := make([][]workload.Access, tiles)
	for t := range stream {
		stream[t] = make([]workload.Access, 0, per*ps.Chunks)
	}
	var next chunkTimer
	for c := 0; c < ps.Chunks; c++ {
		next.time(per*tiles, func() {
			for i := 0; i < per; i++ {
				for t := 0; t < tiles; t++ {
					stream[t] = append(stream[t], sys.Gen.Next(topo.Tile(t)))
				}
			}
		})
	}
	out["workload.probe_ns_per_next"] = single("ns/next", median(next))

	l1 := make([]*cache.Cache, tiles)
	for t := range l1 {
		l1[t] = cache.New("l1", cfg.Proto.L1Sets, cfg.Proto.L1Ways)
	}
	misses := make([]miss, 0, per*ps.Chunks*tiles)
	var access chunkTimer
	for c := 0; c < ps.Chunks; c++ {
		access.time(per*tiles, func() {
			for i := c * per; i < (c+1)*per; i++ {
				for t := 0; t < tiles; t++ {
					a := stream[t][i].Addr
					l, hit, _ := l1[t].Probe(a)
					if hit {
						l1[t].Touch(l)
						continue
					}
					l1[t].Fill(l, a, 1)
					misses = append(misses, miss{topo.Tile(t), a})
				}
			}
		})
	}
	out["cache.probe_ns_per_access"] = single("ns/access", median(access))
	out["cache.probe_l1_hit_ratio"] = single("frac", 1-ratio(float64(len(misses)), float64(per*ps.Chunks*tiles)))
	if len(misses) == 0 {
		return nil, fmt.Errorf("probe: the %s stream never misses in the L1", s.Name)
	}

	out["mesh.probe_ns_per_send"] = single("ns/send", probeMesh(cfg, sys.Ctx, misses, ps.Chunks, seed))
	out["sim.probe_ns_per_event"] = single("ns/event", probeKernel(stream, ps, seed))
	for _, p := range core.ProtocolNames {
		ns, err := probeMisses(cfg, p, misses, ps, seed)
		if err != nil {
			return nil, err
		}
		out["proto.probe_ns_per_miss."+p] = single("ns/miss", ns)
	}
	return out, nil
}

func nopArg(any) {}

// probeMesh sends each miss as a control message from its tile to its
// home bank. Deliveries drain between timed batches.
func probeMesh(cfg core.Config, ctx *proto.Context, misses []miss, chunks int, seed uint64) float64 {
	k := sim.NewKernel(seed)
	net := mesh.New(k, topo.SquareGrid(cfg.Tiles), cfg.Net)
	const batch = 256
	per := (len(misses) + chunks - 1) / chunks
	var send chunkTimer
	for lo := 0; lo < len(misses); lo += per {
		hi := min(lo+per, len(misses))
		var ns int64
		for b := lo; b < hi; b += batch {
			t := time.Now()
			for _, m := range misses[b:min(b+batch, hi)] {
				net.SendArg(m.tile, ctx.HomeOf(m.addr), cfg.Net.ControlFlits, nopArg, nil)
			}
			ns += time.Since(t).Nanoseconds()
			k.Run(0)
		}
		send = append(send, ratio(float64(ns), float64(hi-lo)))
	}
	return median(send)
}

// probeKernel schedules and dispatches events whose delays are the
// stream's think-time gaps, at a steady queue depth of one event per
// tile plus a backlog.
func probeKernel(stream [][]workload.Access, ps probeSizes, seed uint64) float64 {
	var gaps []sim.Time
	for _, s := range stream {
		for _, a := range s {
			gaps = append(gaps, 1+a.Gap)
		}
	}
	k := sim.NewKernel(seed)
	for i := 0; i < 1024; i++ {
		k.AfterArg(gaps[i%len(gaps)], nopArg, nil)
	}
	var ev chunkTimer
	j := 0
	for c := 0; c < ps.Chunks; c++ {
		ev.time(ps.Events, func() {
			for i := 0; i < ps.Events; i++ {
				k.AfterArg(gaps[j], nopArg, nil)
				k.Step()
				if j++; j == len(gaps) {
					j = 0
				}
			}
		})
	}
	return median(ev)
}

// probeMisses drives writes through one engine on a bare chip: each
// write goes to one of a small set of blocks from the stream's misses,
// issued by the tile of the corresponding miss, so nearly every write
// is a coherence miss that invalidates another tile's copy and moves
// the data, with no DRAM access once the blocks are on chip.
func probeMisses(cfg core.Config, protocol string, misses []miss, ps probeSizes, seed uint64) (float64, error) {
	k := sim.NewKernel(seed)
	grid := topo.SquareGrid(cfg.Tiles)
	areas, err := topo.NewAreas(grid, cfg.Areas)
	if err != nil {
		return 0, err
	}
	ctx := &proto.Context{Kernel: k, Net: mesh.New(k, grid, cfg.Net), Areas: areas,
		Mem: memctrl.Default(grid, k.Rand().Fork()), Cfg: cfg.Proto}
	var eng proto.Engine
	switch protocol {
	case "directory":
		eng = proto.NewDirectory(ctx)
	case "dico":
		eng = proto.NewDiCo(ctx)
	case "providers":
		eng = proto.NewProviders(ctx)
	case "arin":
		eng = proto.NewArin(ctx)
	default:
		return 0, fmt.Errorf("probe: unknown protocol %q", protocol)
	}
	const blocks = 64
	var addrs []cache.Addr
	seen := map[cache.Addr]bool{}
	for _, m := range misses {
		if len(addrs) == blocks {
			break
		}
		if !seen[m.addr] {
			seen[m.addr] = true
			addrs = append(addrs, m.addr)
		}
	}
	completed := false
	done := func() { completed = true }
	cond := func() bool { return completed }
	i := 0
	trip := func() error {
		m := misses[i%len(misses)]
		completed = false
		eng.Access(m.tile, addrs[i%len(addrs)], true, done)
		i++
		k.RunUntil(cond)
		if !completed {
			return fmt.Errorf("probe: %s write of block %d by tile %d never completed",
				protocol, addrs[(i-1)%len(addrs)], m.tile)
		}
		return nil
	}
	for n := 0; n < 2*len(addrs); n++ { // bring the blocks on chip
		if err := trip(); err != nil {
			return 0, err
		}
	}
	var rt chunkTimer
	for c := 0; c < ps.Chunks; c++ {
		rt.time(ps.Misses, func() {
			for n := 0; n < ps.Misses && err == nil; n++ {
				err = trip()
			}
		})
		if err != nil {
			return 0, err
		}
	}
	k.Run(0)
	return median(rt), nil
}

package workload

import (
	"fmt"

	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/topo"
)

// This file provides the snapshot surface of the reference generator:
// the per-core random streams and locality cursors. Everything else in
// a Generator (zipf tables, thread indices, window sizes) is a pure
// function of the workload and placement, so a freshly built generator
// only needs the cursors restored to reproduce the stream exactly.

// CoreCursor is the serializable locality cursor of one core.
type CoreCursor struct {
	Page   uint64
	Class  int
	Block  int
	Burst  int
	Repeat int
	Write  bool
}

// GeneratorState is the serializable state of a Generator.
type GeneratorState struct {
	Rands []sim.RandState
	Cores []CoreCursor
}

// State returns a deep copy of the generator's per-core cursors and
// random streams.
func (g *Generator) State() *GeneratorState {
	st := &GeneratorState{
		Rands: make([]sim.RandState, len(g.rng)),
		Cores: make([]CoreCursor, len(g.cores)),
	}
	for i, r := range g.rng {
		st.Rands[i] = r.State()
	}
	for i := range g.cores {
		cs := &g.cores[i]
		st.Cores[i] = CoreCursor{
			Page: cs.page, Class: int(cs.class), Block: cs.block,
			Burst: cs.burst, Repeat: cs.repeat, Write: cs.write,
		}
	}
	return st
}

// RestoreState overwrites the generator's cursors and random streams.
// The core count must match the generator's construction, and every
// cursor must lie inside its VM's page table and locality ranges.
func (g *Generator) RestoreState(st *GeneratorState) error {
	if len(st.Rands) != len(g.rng) || len(st.Cores) != len(g.cores) {
		return fmt.Errorf("workload: snapshot has %d cores, generator has %d", len(st.Cores), len(g.cores))
	}
	for i, c := range st.Cores {
		if err := g.checkCursor(topo.Tile(i), c); err != nil {
			return fmt.Errorf("workload: snapshot core %d: %v", i, err)
		}
	}
	for i, rs := range st.Rands {
		g.rng[i].SetState(rs)
	}
	for i, c := range st.Cores {
		g.cores[i] = coreState{
			page: c.Page, class: pageClass(c.Class), block: c.Block,
			burst: c.Burst, repeat: c.Repeat, write: c.Write,
		}
	}
	return nil
}

// checkCursor reports a cursor Next could not have left on tile: its
// page must exist in its class, and block, burst and repeat must lie in
// the ranges Next draws them from.
func (g *Generator) checkCursor(tile topo.Tile, c CoreCursor) error {
	p := &g.workload.VMs[g.placement.VMOf(tile)]
	var pages int
	switch pageClass(c.Class) {
	case classPrivate:
		pages = p.PrivatePagesPerThread
	case classVMShared:
		pages = p.VMSharedPages
	case classDedup:
		pages = p.DedupPages
	default:
		return fmt.Errorf("page class %d out of range", c.Class)
	}
	switch {
	case c.Page >= uint64(pages):
		return fmt.Errorf("page %d of class %d, VM has %d", c.Page, c.Class, pages)
	case c.Block < 0 || c.Block >= memctrl.BlocksPerPage:
		return fmt.Errorf("block %d out of range", c.Block)
	case c.Burst < 0 || c.Burst >= 2*p.BurstBlocks:
		return fmt.Errorf("burst %d out of range", c.Burst)
	case c.Repeat < 0 || c.Repeat >= 2*p.RefsPerBlock:
		return fmt.Errorf("repeat %d out of range", c.Repeat)
	}
	return nil
}

package memctrl

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// This file provides the snapshot surface of the memory system: the
// controllers' DRAM-jitter random stream and read/write totals, and the
// mapper's page table, deduplication and copy-on-write state. Tables
// are exported as slices sorted by key so a captured state serializes
// deterministically.

// ControllersState is the serializable state of the memory controllers.
type ControllersState struct {
	Rand   sim.RandState
	Reads  uint64
	Writes uint64
}

// State captures the controllers' counters and random stream.
func (c *Controllers) State() ControllersState {
	return ControllersState{Rand: c.rng.State(), Reads: c.Reads, Writes: c.Writes}
}

// RestoreState overwrites the controllers' counters and random stream.
func (c *Controllers) RestoreState(st ControllersState) {
	c.rng.SetState(st.Rand)
	c.Reads = st.Reads
	c.Writes = st.Writes
}

// PageEntry is one (vm, vpage) -> phys mapping of the private or
// copy-on-write tables.
type PageEntry struct {
	VM    int
	VPage uint64
	Phys  uint64
}

// SharedEntry is one content-id -> phys mapping of the dedup table.
type SharedEntry struct {
	Content uint64
	Phys    uint64
}

// SeenEntry is one (vm, vpage) pair counted toward dedup savings.
type SeenEntry struct {
	VM    int
	VPage uint64
}

// CoWEntry is one broken deduplicated pair: its reserved frame and the
// cycle the break became (or becomes) visible to readers.
type CoWEntry struct {
	VM        int
	VPage     uint64
	Phys      uint64
	VisibleAt sim.Time
}

// MapperState is the serializable state of the Mapper. Everything but
// the CoW entries and CoWBreaks is fixed when the page table is built,
// so a restore checks it against the freshly built table rather than
// loading it; the CoW frame reservations are rebuilt the same way.
type MapperState struct {
	Dedup    bool
	NextPhys uint64
	Private  []PageEntry
	CoW      []CoWEntry
	Shared   []SharedEntry
	Seen     []SeenEntry

	PrivatePages uint64
	SharedPages  uint64
	DedupRefs    uint64
	CoWBreaks    uint64
}

func byPair(avm int, ap uint64, bvm int, bp uint64) int {
	if avm != bvm {
		return cmp.Compare(avm, bvm)
	}
	return cmp.Compare(ap, bp)
}

// State exports the page table, its dedup bookkeeping and the
// copy-on-write breaks, each sorted by key.
func (m *Mapper) State() *MapperState {
	st := &MapperState{
		Dedup:        m.dedup,
		NextPhys:     m.nextPhys,
		PrivatePages: m.PrivatePages,
		SharedPages:  m.SharedPages,
		DedupRefs:    m.DedupRefs,
		CoWBreaks:    m.CoWBreaks,
	}
	for i := range m.pages {
		e, k := &m.pages[i], m.keys[i]
		if !e.merged() {
			st.Private = append(st.Private, PageEntry{VM: k.vm, VPage: k.vpage, Phys: e.shared})
			continue
		}
		st.Seen = append(st.Seen, SeenEntry{VM: k.vm, VPage: k.vpage})
		if v := e.visible.Load(); v != unbroken {
			st.CoW = append(st.CoW, CoWEntry{VM: k.vm, VPage: k.vpage, Phys: e.own, VisibleAt: sim.Time(v)})
		}
	}
	for c, p := range m.content {
		st.Shared = append(st.Shared, SharedEntry{Content: c, Phys: p})
	}
	slices.SortFunc(st.Private, func(a, b PageEntry) int { return byPair(a.VM, a.VPage, b.VM, b.VPage) })
	slices.SortFunc(st.Seen, func(a, b SeenEntry) int { return byPair(a.VM, a.VPage, b.VM, b.VPage) })
	slices.SortFunc(st.CoW, func(a, b CoWEntry) int { return byPair(a.VM, a.VPage, b.VM, b.VPage) })
	slices.SortFunc(st.Shared, func(a, b SharedEntry) int { return cmp.Compare(a.Content, b.Content) })
	return st
}

// RestoreState applies a captured state's copy-on-write breaks and
// break count. The rest of the state must equal the page table this
// mapper was built with (the table is a pure function of the workload
// and config); a snapshot of a different table is an error.
func (m *Mapper) RestoreState(st *MapperState) error {
	if st.Dedup != m.dedup {
		return fmt.Errorf("memctrl: snapshot dedup=%v, mapper dedup=%v", st.Dedup, m.dedup)
	}
	built := m.State()
	if st.NextPhys != built.NextPhys || st.PrivatePages != built.PrivatePages ||
		st.SharedPages != built.SharedPages || st.DedupRefs != built.DedupRefs ||
		!slices.Equal(st.Private, built.Private) || !slices.Equal(st.Shared, built.Shared) ||
		!slices.Equal(st.Seen, built.Seen) {
		return fmt.Errorf("memctrl: snapshot page table (%d frames, %d private, %d shared) does not match the built one (%d, %d, %d); workload mismatch?",
			st.NextPhys, len(st.Private), len(st.Shared), built.NextPhys, len(built.Private), len(built.Shared))
	}
	index := make(map[pageKey]PageID, len(built.Seen))
	for i, k := range m.keys {
		if m.pages[i].merged() {
			index[k] = PageID(i)
		}
	}
	for _, e := range st.CoW {
		id, ok := index[pageKey{e.VM, e.VPage}]
		if !ok || m.pages[id].own != e.Phys {
			return fmt.Errorf("memctrl: snapshot CoW frame %d for (vm %d, page %#x) does not match a reservation; workload mismatch?", e.Phys, e.VM, e.VPage)
		}
	}
	for i := range m.pages {
		if e := &m.pages[i]; e.merged() {
			e.visible.Store(unbroken)
		}
	}
	for _, e := range st.CoW {
		m.pages[index[pageKey{e.VM, e.VPage}]].visible.Store(uint64(e.VisibleAt))
	}
	m.CoWBreaks = st.CoWBreaks
	return nil
}

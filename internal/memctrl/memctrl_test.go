package memctrl

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestBorderTilesOnBorders(t *testing.T) {
	g := topo.NewGrid(8, 8)
	tiles := BorderTiles(g, 8)
	if len(tiles) != 8 {
		t.Fatalf("got %d tiles, want 8", len(tiles))
	}
	seen := make(map[topo.Tile]bool)
	for _, tile := range tiles {
		_, y := g.Coord(tile)
		if y != 0 && y != 7 {
			t.Errorf("controller at tile %d not on a border row", tile)
		}
		if seen[tile] {
			t.Errorf("duplicate controller tile %d", tile)
		}
		seen[tile] = true
	}
}

func TestControllersInterleave(t *testing.T) {
	g := topo.NewGrid(8, 8)
	c := Default(g, sim.NewRand(1))
	counts := make(map[topo.Tile]int)
	for a := cache.Addr(0); a < 8000; a++ {
		counts[c.For(a)]++
	}
	if len(counts) != 8 {
		t.Fatalf("addresses map to %d controllers, want 8", len(counts))
	}
	for tile, n := range counts {
		if n != 1000 {
			t.Errorf("controller %d got %d addresses, want 1000", tile, n)
		}
	}
}

func TestLatencyRange(t *testing.T) {
	c := New([]topo.Tile{0}, 300, 16, sim.NewRand(2))
	sawJitter := false
	for i := 0; i < 200; i++ {
		l := c.ReadLatency()
		if l < 300 || l > 316 {
			t.Fatalf("latency %d outside [300,316]", l)
		}
		if l != 300 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Error("jitter never applied")
	}
	if c.Reads != 200 {
		t.Errorf("Reads = %d, want 200", c.Reads)
	}
	c.WriteLatency()
	if c.Writes != 1 {
		t.Errorf("Writes = %d, want 1", c.Writes)
	}
}

func TestMapperPrivateIsolation(t *testing.T) {
	m := NewMapper(true)
	id0 := m.Map(100, PagePrivate)
	id1 := m.Map(100, PagePrivate)
	p0 := m.Frame(id0, false, 0)
	if p0 == m.Frame(id1, false, 0) {
		t.Error("private pages of different VMs share a frame")
	}
	if m.Frame(id0, true, 5) != p0 {
		t.Error("private translation not stable")
	}
}

func TestMapperDedupMerges(t *testing.T) {
	m := NewMapper(true)
	p0 := m.Frame(m.Map(7, PageDedup), false, 0)
	p1 := m.Frame(m.Map(7, PageDedup), false, 0)
	p2 := m.Frame(m.Map(7, PageDedup), false, 0)
	if p0 != p1 || p1 != p2 {
		t.Error("dedup pages not merged across VMs")
	}
	if m.DedupRefs != 2 {
		t.Errorf("DedupRefs = %d, want 2", m.DedupRefs)
	}
}

func TestMapperDedupOff(t *testing.T) {
	m := NewMapper(false)
	p0 := m.Frame(m.Map(7, PageDedup), false, 0)
	p1 := m.Frame(m.Map(7, PageDedup), false, 0)
	if p0 == p1 {
		t.Error("dedup off but pages merged")
	}
	if m.Frame(m.Map(7, PageDedup), true, 0); m.CoWBreaks != 0 {
		t.Error("dedup off but a write broke a sharing")
	}
}

func TestMapperCopyOnWrite(t *testing.T) {
	m := NewMapper(true)
	id0, id1 := m.Map(7, PageDedup), m.Map(7, PageDedup)
	shared := m.Frame(id0, false, 0)
	if m.Frame(id1, false, 0) != shared {
		t.Fatal("precondition: pages merged")
	}
	broken := m.Frame(id1, true, 0)
	if m.CoWBreaks != 1 {
		t.Fatalf("write to dedup page: CoWBreaks = %d, want 1", m.CoWBreaks)
	}
	if broken == shared {
		t.Fatal("CoW did not give the writer a new frame")
	}
	// VM 1 now sticks to its copy; VM 0 keeps the shared frame.
	if m.Frame(id1, false, 0) != broken || m.Frame(id1, true, 0) != broken {
		t.Error("post-CoW translation unstable")
	}
	if m.Frame(id0, false, 0) != shared {
		t.Error("CoW disturbed the other VM's mapping")
	}
	if m.CoWBreaks != 1 {
		t.Errorf("CoWBreaks = %d, want 1", m.CoWBreaks)
	}
}

// TestCoWVisibility pins the timing of a break under a visibility
// delay: the writer gets its copy at once, readers keep the shared
// frame until the break's visibility time, and a second writer inside
// the window moves visibility to the earlier of the two times without
// counting a second break.
func TestCoWVisibility(t *testing.T) {
	const delay = 4
	m := NewMapper(true)
	m.SetCoWDelay(delay)
	id := m.Map(9, PageDedup)
	other := m.Map(9, PageDedup)
	shared := m.Frame(id, false, 0)

	own := m.Frame(id, true, 100) // visible at 104
	if own == shared {
		t.Fatal("writer did not get its copy at once")
	}
	for now, want := range map[sim.Time]uint64{100: shared, 103: shared, 104: own, 200: own} {
		if got := m.Frame(id, false, now); got != want {
			t.Errorf("read at %d: frame %d, want %d", now, got, want)
		}
	}
	if m.Frame(other, false, 200) != shared {
		t.Error("a break moved another VM's page")
	}

	// A second writer at an earlier cycle (another lane, behind in its
	// window) pulls visibility forward to 98+delay = 102; a later one
	// leaves it there.
	m2 := NewMapper(true)
	m2.SetCoWDelay(delay)
	id = m2.Map(9, PageDedup)
	m2.Frame(id, true, 100)
	if got := m2.Frame(id, true, 98); got != own {
		t.Fatalf("second writer got frame %d, want its copy %d", got, own)
	}
	m2.Frame(id, true, 101)
	if m2.Frame(id, false, 101) != shared || m2.Frame(id, false, 102) != own {
		t.Error("second writer did not keep the earliest visibility time")
	}
	if m2.CoWBreaks != 1 {
		t.Errorf("CoWBreaks = %d after three writes to one page, want 1", m2.CoWBreaks)
	}
}

// TestConcurrentCoWBreak writes one deduplicated page from two
// goroutines at different cycles, as two executor lanes would inside a
// window, while they also read it: the outcome must be the one break
// and the earliest visibility time whatever the interleaving (run it
// under -race).
func TestConcurrentCoWBreak(t *testing.T) {
	const delay = 5
	for round := 0; round < 50; round++ {
		m := NewMapper(true)
		m.SetCoWDelay(delay)
		id := m.Map(3, PageDedup)
		m.Map(3, PageDedup)
		shared := m.Frame(id, false, 0)
		frames := make([]uint64, 2)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				now := sim.Time(10 + g)
				if m.Frame(id, false, now) != shared {
					t.Error("reader inside the window saw the copy")
				}
				frames[g] = m.Frame(id, true, now)
			}(g)
		}
		wg.Wait()
		if frames[0] != frames[1] || frames[0] == shared {
			t.Fatalf("writers got frames %v, shared %d", frames, shared)
		}
		if m.CoWBreaks != 1 {
			t.Fatalf("CoWBreaks = %d, want 1", m.CoWBreaks)
		}
		if m.Frame(id, false, 14) != shared || m.Frame(id, false, 15) != frames[0] {
			t.Fatal("visibility is not the earlier writer's cycle plus the delay")
		}
	}
}

func TestMapperSavedFraction(t *testing.T) {
	m := NewMapper(true)
	// 4 VMs x 100 private pages + 4 VMs sharing 25 dedup pages.
	for vm := 0; vm < 4; vm++ {
		for p := uint64(0); p < 100; p++ {
			m.Map(1000+uint64(vm)*10000+p, PagePrivate)
		}
		for p := uint64(0); p < 25; p++ {
			m.Map(p, PageDedup)
		}
	}
	// Without dedup: 4*125 = 500 pages; with: 400 + 25 = 425.
	got := m.SavedFraction()
	want := 1 - 425.0/500.0
	if got < want-0.001 || got > want+0.001 {
		t.Errorf("SavedFraction = %v, want %v", got, want)
	}
}

// TestSavedFractionBreaksWithoutSharing: with no page shared across
// VMs, deduplication saves nothing however many copy-on-write breaks
// the run takes — a break's copy is allocated memory, not a saving.
func TestSavedFractionBreaksWithoutSharing(t *testing.T) {
	m := NewMapper(true)
	var ids []PageID
	for vm := 0; vm < 4; vm++ {
		m.Map(1<<40|uint64(vm), PagePrivate)
		ids = append(ids, m.Map(uint64(vm), PageDedup))
	}
	for i, id := range ids[:3] {
		m.Frame(id, true, sim.Time(i))
	}
	if m.CoWBreaks != 3 || m.DedupRefs != 0 {
		t.Fatalf("premise: %d breaks, %d dedup refs", m.CoWBreaks, m.DedupRefs)
	}
	if got := m.SavedFraction(); got != 0 {
		t.Errorf("SavedFraction = %v with no sharing, want 0", got)
	}
}

func TestBlockAddrProperty(t *testing.T) {
	if err := quick.Check(func(page uint32, blk uint8) bool {
		b := int(blk) % BlocksPerPage
		a := BlockAddr(uint64(page), b)
		return uint64(a)/BlocksPerPage == uint64(page) && int(uint64(a)%BlocksPerPage) == b
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMapperDistinctContentDistinctFrames(t *testing.T) {
	m := NewMapper(true)
	p0 := m.Frame(m.Map(1, PageDedup), false, 0)
	p1 := m.Frame(m.Map(2, PageDedup), false, 0)
	if p0 == p1 {
		t.Error("different content ids share a frame")
	}
}

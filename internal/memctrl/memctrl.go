// Package memctrl models the off-chip memory system: the eight memory
// controllers on the chip borders (Table III: 300-cycle latency plus a
// small random delay) and the hypervisor's content-based page
// deduplication with copy-on-write.
package memctrl

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
)

// BlocksPerPage is the number of 64-byte blocks in a 4 KB page.
const BlocksPerPage = 64

// Controllers places and times the chip's memory controllers.
type Controllers struct {
	tiles   []topo.Tile
	latency sim.Time
	jitter  int
	rng     *sim.Rand

	Reads  uint64
	Writes uint64
}

// BorderTiles returns n controller positions spread along the top and
// bottom borders of the grid (the paper places 8 along the borders of
// the 8x8 chip).
func BorderTiles(grid topo.Grid, n int) []topo.Tile {
	if n <= 0 {
		panic("memctrl: need at least one controller")
	}
	tiles := make([]topo.Tile, 0, n)
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		x := i * grid.Cols / half
		tiles = append(tiles, grid.At(x, 0))
	}
	for i := 0; i < n-half; i++ {
		x := i*grid.Cols/(n-half) + grid.Cols/(2*(n-half))
		tiles = append(tiles, grid.At(x, grid.Rows-1))
	}
	return tiles
}

// New returns controllers at the given tiles with base latency and a
// uniform random extra delay in [0, jitter].
func New(tiles []topo.Tile, latency sim.Time, jitter int, rng *sim.Rand) *Controllers {
	if len(tiles) == 0 {
		panic("memctrl: no controller tiles")
	}
	return &Controllers{tiles: tiles, latency: latency, jitter: jitter, rng: rng}
}

// Default returns the paper's configuration: 8 border controllers,
// 300 cycles plus up to 16 cycles of jitter.
func Default(grid topo.Grid, rng *sim.Rand) *Controllers {
	return New(BorderTiles(grid, 8), 300, 16, rng)
}

// For returns the controller tile responsible for block address a
// (address-interleaved).
func (c *Controllers) For(a cache.Addr) topo.Tile {
	return c.tiles[uint64(a)%uint64(len(c.tiles))]
}

// Tiles returns the controller positions (shared slice; do not mutate).
func (c *Controllers) Tiles() []topo.Tile { return c.tiles }

// ReadLatency samples the DRAM access time for a read and counts it.
func (c *Controllers) ReadLatency() sim.Time {
	c.Reads++
	return c.sample()
}

// WriteLatency samples the DRAM access time for a writeback and counts
// it.
func (c *Controllers) WriteLatency() sim.Time {
	c.Writes++
	return c.sample()
}

func (c *Controllers) sample() sim.Time {
	d := c.latency
	if c.jitter > 0 {
		d += sim.Time(c.rng.Intn(c.jitter + 1))
	}
	return d
}

// PageClass classifies a virtual page for the deduplication model.
type PageClass int

// Page classes: private to one thread, shared within one VM, or
// deduplicated read-only content identical across VMs.
const (
	PagePrivate PageClass = iota
	PageVMShared
	PageDedup
)

// PageID names one (vm, virtual page) pair of the mapper's page table:
// Map hands them out densely, in mapping order.
type PageID uint32

// cowFrameBase is the physical page number of the first reserved
// copy-on-write frame. CoW frames are reserved at page-table
// construction (one per deduplicated (vm, vpage) pair, in mapping
// order) so a break at run time activates a predetermined frame instead
// of drawing from the shared allocator — the frame number is then
// independent of break order, which is what lets concurrent lanes break
// pages without serializing on an allocation counter. Regular frames
// stay far below this base. With BlocksPerPage = 2^6, every block
// address, CoW frames included, is below 2^37 = cache.MaxAddr while
// fewer than 2^30 CoW frames are reserved.
const cowFrameBase = 1 << 30

// unbroken is the visibility time of a deduplicated page nobody has
// written: its copy never becomes visible.
const unbroken = ^uint64(0)

// pageEntry is one page-table entry. A reference resolves to own once
// now >= visible, and to shared before that. A private or VM-shared
// page has own == shared and visible 0, so it always resolves to its
// one frame. A deduplicated page holds the content's shared frame, its
// reserved copy-on-write frame and the cycle its break becomes visible
// to readers (unbroken until written).
type pageEntry struct {
	shared  uint64
	own     uint64
	visible atomic.Uint64
}

// Mapper is the hypervisor page table: it maps (vm, virtual page) to
// physical pages, merging identical read-only pages across VMs when
// deduplication is enabled, and breaking the sharing with copy-on-write
// when a deduplicated page is written.
//
// The table is dense and fully built before the run (the generator maps
// every page of every VM image up front), so a run-time translation is
// one indexed load. Private and VM-shared entries never change. A
// copy-on-write break publishes its visibility time atomically, under
// a mutex that only breaks take, and the new frame becomes visible to
// *readers* only delay cycles later (SetCoWDelay — the parallel
// executor sets the kernel lookahead, within which no lane can observe
// another's same-window break anyway). That makes the outcome of every
// translation a pure function of its timestamp, independent of how
// concurrent lanes interleave.
type Mapper struct {
	dedup    bool
	nextPhys uint64
	pages    []pageEntry
	content  map[uint64]uint64 // content id (vpage) -> shared frame; Map only
	cowNext  uint64
	delay    sim.Time   // read visibility delay of a CoW break
	mu       sync.Mutex // serializes CoW breaks

	// Statistics.
	PrivatePages uint64
	SharedPages  uint64 // deduplicated physical pages
	DedupRefs    uint64 // (vm, vpage) pairs resolved to a shared page
	CoWBreaks    uint64
}

// NewMapper returns a mapper with deduplication enabled or disabled.
func NewMapper(dedup bool) *Mapper {
	return &Mapper{dedup: dedup, content: make(map[uint64]uint64)}
}

// SetCoWDelay sets the visibility delay of copy-on-write breaks: a
// break at cycle t resolves readers to the old shared frame until t +
// delay. Zero (the default) is immediate visibility. The system sets
// the kernel lookahead here for both executors, so serial and parallel
// runs share one timing model.
func (m *Mapper) SetCoWDelay(d sim.Time) { m.delay = d }

// Reserve makes room for n more pages, so a table built by a known
// number of Map calls is allocated once.
func (m *Mapper) Reserve(n int) {
	m.pages = slices.Grow(m.pages, n)
}

// Pages returns the number of pages mapped so far, which is also the
// id the next Map call returns.
func (m *Mapper) Pages() PageID { return PageID(len(m.pages)) }

// Map adds one VM's virtual page vpage to the page table and returns
// its id. A deduplicated page (with deduplication on) shares one frame
// per content id — its vpage — across VMs and reserves its own
// copy-on-write frame; every other page gets a fresh frame. Each (vm,
// vpage) pair is mapped once, before the run: Map is not lane-safe.
func (m *Mapper) Map(vpage uint64, class PageClass) PageID {
	id := PageID(len(m.pages))
	m.pages = append(m.pages, pageEntry{})
	e := &m.pages[id]
	if class != PageDedup || !m.dedup {
		e.shared = m.allocPhys()
		e.own = e.shared
		m.PrivatePages++
		return id
	}
	sp, known := m.content[vpage]
	if known {
		// A new VM maps an already-deduplicated page: one page saved.
		m.DedupRefs++
	} else {
		sp = m.allocPhys()
		m.content[vpage] = sp
		m.SharedPages++
	}
	e.shared = sp
	e.own = cowFrameBase + m.cowNext
	m.cowNext++
	e.visible.Store(unbroken)
	return id
}

func (m *Mapper) allocPhys() uint64 {
	p := m.nextPhys
	m.nextPhys++
	return p
}

// Frame translates page id to its physical frame as seen at cycle now.
// write triggers copy-on-write on a deduplicated page: the writer gets
// its own frame at once, while readers keep the shared frame until the
// break becomes visible.
func (m *Mapper) Frame(id PageID, write bool, now sim.Time) uint64 {
	e := &m.pages[id]
	if uint64(now) >= e.visible.Load() {
		return e.own
	}
	if write {
		m.breakCoW(e, now)
		return e.own
	}
	return e.shared
}

// breakCoW records a write to a deduplicated page whose copy is not yet
// visible. The first writer counts the break; a second writer inside
// the visibility window keeps the earliest visibility time (min is
// order-independent, so concurrent lanes converge on the value the
// serial executor computes).
func (m *Mapper) breakCoW(e *pageEntry, now sim.Time) {
	nv := uint64(now + m.delay)
	m.mu.Lock()
	defer m.mu.Unlock()
	v := e.visible.Load()
	if v == unbroken {
		m.CoWBreaks++
	}
	if nv < v {
		e.visible.Store(nv)
	}
}

// BlockAddr converts a physical page and block offset into a block
// address.
func BlockAddr(physPage uint64, block int) cache.Addr {
	return cache.Addr(physPage*BlocksPerPage + uint64(block))
}

// SavedFraction returns the fraction of physical memory saved by
// deduplication: pages that would have been allocated without dedup
// versus pages actually allocated. A copy-on-write break is a live
// page on both sides: its copy lives in a reserved frame outside the
// regular allocator, so it is added to the allocated side explicitly.
func (m *Mapper) SavedFraction() float64 {
	without := m.PrivatePages + m.SharedPages + m.DedupRefs + m.CoWBreaks
	with := m.nextPhys + m.CoWBreaks
	if without == 0 {
		return 0
	}
	return 1 - float64(with)/float64(without)
}

// Package memctrl models the off-chip memory system: the eight memory
// controllers on the chip borders (Table III: 300-cycle latency plus a
// small random delay) and the hypervisor's content-based page
// deduplication with copy-on-write.
package memctrl

import (
	"sync"

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

type pageKey struct {
	vm    int
	vpage uint64
}

// tlbSize is the size of the mapper's direct-mapped translation cache
// (power of two). Collisions simply fall back to the map-based path.
const tlbSize = 8192

// cowFrameBase is the physical page number of the first reserved
// copy-on-write frame. CoW frames are reserved at page-table
// construction (one per deduplicated (vm, vpage) pair, in construction
// order) so a break at run time activates a predetermined frame instead
// of drawing from the shared allocator — the frame number is then
// independent of break order, which is what lets concurrent lanes break
// pages without serializing on an allocation counter. Regular frames
// stay far below this base, and block addresses stay under 2^40.
const cowFrameBase = 1 << 30

// tlbEntry caches one established (vm, vpage, class) -> phys mapping.
// writeSafe is false for a deduplicated page still resolved to the
// shared frame: a write to it must take the slow path to break the
// sharing (copy-on-write). until bounds the entry's validity: zero
// means forever; a nonzero value marks a pending copy-on-write break
// whose new frame becomes visible at that cycle, so lookups at or past
// it must re-resolve through the maps.
type tlbEntry struct {
	vm        int32
	class     int8
	writeSafe bool
	vpage     uint64
	phys      uint64
	until     sim.Time
}

// Mapper is the hypervisor page table: it maps (vm, virtual page) to
// physical pages, merging identical read-only pages across VMs when
// deduplication is enabled, and breaking the sharing with copy-on-write
// when a deduplicated page is written.
//
// Lane safety: the page tables are fully populated at construction
// (the generator pre-maps every page), so run-time translations are
// lookups except for copy-on-write breaks. A sync.RWMutex guards the
// slow path; each executor lane gets its own direct-mapped TLB slot
// (SetLanes) read without locks; and a break's new frame becomes
// visible to *readers* only delay cycles later (SetCoWDelay — the
// parallel executor sets the kernel lookahead, within which no lane
// can observe another's same-window break anyway), which makes the
// outcome of every translation a pure function of its timestamp,
// independent of how concurrent lanes interleave.
type Mapper struct {
	dedup      bool
	nextPhys   uint64
	private    map[pageKey]uint64
	shared     map[uint64]uint64    // content id (vpage) -> phys page
	cowRes     map[pageKey]uint64   // reserved CoW frame per dedup pair
	cowAt      map[pageKey]sim.Time // break visibility time; presence = broken
	cowNext    uint64
	sharedSeen map[pageKey]bool // (vm, vpage) pairs already counted
	delay      sim.Time         // read visibility delay of a CoW break
	mu         sync.RWMutex     // guards the maps above
	tlbs       [][]tlbEntry     // per-lane direct-mapped front caches
	lanes      []*sim.Kernel    // per-lane kernels for deferred TLB shootdowns

	// Statistics.
	PrivatePages uint64
	SharedPages  uint64 // deduplicated physical pages
	DedupRefs    uint64 // (vm, vpage) pairs resolved to a shared page
	CoWBreaks    uint64
}

// NewMapper returns a mapper with deduplication enabled or disabled.
func NewMapper(dedup bool) *Mapper {
	m := &Mapper{
		dedup:      dedup,
		private:    make(map[pageKey]uint64),
		shared:     make(map[uint64]uint64),
		cowRes:     make(map[pageKey]uint64),
		cowAt:      make(map[pageKey]sim.Time),
		sharedSeen: make(map[pageKey]bool),
		tlbs:       [][]tlbEntry{newTLB()},
	}
	return m
}

func newTLB() []tlbEntry {
	t := make([]tlbEntry, tlbSize)
	for i := range t {
		t[i].vm = -1
	}
	return t
}

// DedupEnabled reports whether deduplication is on.
func (m *Mapper) DedupEnabled() bool { return m.dedup }

// SetCoWDelay sets the visibility delay of copy-on-write breaks: a
// break at cycle t resolves readers to the old shared frame until t +
// delay. Zero (the default) is immediate visibility. The system sets
// the kernel lookahead here for both executors, so serial and parallel
// runs share one timing model.
func (m *Mapper) SetCoWDelay(d sim.Time) { m.delay = d }

// SetLanes gives each executor lane a private TLB and the kernel whose
// barrier a break's TLB shootdown defers to. Translations then pass
// their lane as slot. All TLBs start cold.
func (m *Mapper) SetLanes(kernels []*sim.Kernel) {
	if len(kernels) == 0 {
		panic("memctrl: SetLanes with no lanes")
	}
	m.lanes = kernels
	m.tlbs = make([][]tlbEntry, len(kernels))
	for i := range m.tlbs {
		m.tlbs[i] = newTLB()
	}
}

func (m *Mapper) allocPhys() uint64 {
	p := m.nextPhys
	m.nextPhys++
	return p
}

// reserveCoW assigns the pair its predetermined copy-on-write frame.
// Caller holds the write lock; pairs are first seen at construction
// (single-threaded), so the reservation order is deterministic.
func (m *Mapper) reserveCoW(key pageKey) {
	m.cowRes[key] = cowFrameBase + m.cowNext
	m.cowNext++
}

// Translate maps a virtual page of a VM to a physical page through
// lane 0 at cycle 0: the construction-time and single-executor form of
// TranslateAt.
func (m *Mapper) Translate(vm int, vpage uint64, class PageClass, write bool) (phys uint64, cow bool) {
	return m.TranslateAt(vm, vpage, class, write, 0, 0)
}

// TranslateAt maps a virtual page of a VM to a physical page, as seen
// by executor lane slot at cycle now. write triggers copy-on-write on
// deduplicated pages. The returned cow flag reports that this call
// broke a sharing (the caller may account a page-copy cost).
//
// A direct-mapped cache per lane sits in front of the page-table maps:
// once a mapping is established (and, for deduplicated pages, once any
// copy-on-write has resolved and become visible) the maps are never
// consulted again for it. First touches and CoW-breaking writes always
// reach the slow path, so the mapper's statistics and allocation order
// are unchanged.
func (m *Mapper) TranslateAt(vm int, vpage uint64, class PageClass, write bool, slot int, now sim.Time) (phys uint64, cow bool) {
	h := (vpage ^ uint64(vm)<<59) * 0x9E3779B97F4A7C15 >> 32 & (tlbSize - 1)
	e := &m.tlbs[slot][h]
	if e.vpage == vpage && e.vm == int32(vm) && e.class == int8(class) &&
		(e.writeSafe || !write) && (e.until == 0 || now < e.until) {
		return e.phys, false
	}
	phys, cow, writeSafe, until, cache := m.translateSlow(vm, vpage, class, write, slot, now)
	if cache {
		// Writes inside a pending break are not cached: their frame is
		// not readable until the visibility time, and the shootdown a
		// break issued would be undone by the refill.
		*e = tlbEntry{vm: int32(vm), class: int8(class), writeSafe: writeSafe,
			vpage: vpage, phys: phys, until: until}
	}
	return phys, cow
}

func (m *Mapper) translateSlow(vm int, vpage uint64, class PageClass, write bool, slot int, now sim.Time) (phys uint64, cow, writeSafe bool, until sim.Time, cache bool) {
	key := pageKey{vm, vpage}
	if class != PageDedup || !m.dedup {
		m.mu.RLock()
		p, ok := m.private[key]
		m.mu.RUnlock()
		if ok {
			return p, false, true, 0, true
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if p, ok := m.private[key]; ok {
			return p, false, true, 0, true
		}
		p = m.allocPhys()
		m.private[key] = p
		m.PrivatePages++
		return p, false, true, 0, true
	}
	// Deduplicated page: one physical copy per content id unless this
	// VM broke it with a (visible) write.
	m.mu.RLock()
	vAt, broken := m.cowAt[key]
	if broken && now >= vAt {
		p := m.cowRes[key]
		m.mu.RUnlock()
		return p, false, true, 0, true
	}
	sp, known := m.shared[vpage]
	seen := m.sharedSeen[key]
	m.mu.RUnlock()
	if !write && known && seen {
		if broken {
			// Pending break: readers resolve to the shared frame until
			// the new copy becomes visible.
			return sp, false, false, vAt, true
		}
		return sp, false, false, 0, true
	}
	// First touch of the pair, or a write: mutate under the write lock.
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, known = m.shared[vpage]
	if !known {
		sp = m.allocPhys()
		m.shared[vpage] = sp
		m.SharedPages++
		m.sharedSeen[key] = true
		m.reserveCoW(key)
	} else if !m.sharedSeen[key] {
		// A new VM maps an already-deduplicated page: one page saved.
		m.sharedSeen[key] = true
		m.DedupRefs++
		m.reserveCoW(key)
	}
	if !write {
		return sp, false, false, 0, true
	}
	frame := m.cowRes[key]
	vAt, broken = m.cowAt[key]
	if broken && now >= vAt {
		return frame, false, true, 0, true
	}
	nv := now + m.delay
	if broken {
		// A second writer inside the visibility window: the break
		// already counted; keep the earliest visibility time (min is
		// order-independent, so concurrent lanes converge on the same
		// value the serial executor computes).
		if nv < vAt {
			m.cowAt[key] = nv
			m.shootdown(key, slot)
		}
		return frame, false, true, 0, false
	}
	m.cowAt[key] = nv
	m.CoWBreaks++
	m.shootdown(key, slot)
	return frame, true, true, 0, false
}

// shootdown invalidates every lane's TLB slot for a broken pair. In a
// parallel window the clear is deferred to the barrier — stale entries
// resolve readers to the old shared frame meanwhile, which is exactly
// the pending-break semantics, and the barrier runs before any lane's
// clock can reach the visibility time. Outside a window (the serial
// executor, single-threaded) the clear is immediate.
func (m *Mapper) shootdown(key pageKey, slot int) {
	if m.lanes != nil {
		if k := m.lanes[slot]; k.Deferring() {
			k.Defer(0, m.deferredShootdown, key)
			return
		}
	}
	m.clearKey(key)
}

func (m *Mapper) deferredShootdown(arg any, _ uint64) {
	m.clearKey(arg.(pageKey))
}

func (m *Mapper) clearKey(key pageKey) {
	h := (key.vpage ^ uint64(key.vm)<<59) * 0x9E3779B97F4A7C15 >> 32 & (tlbSize - 1)
	for _, t := range m.tlbs {
		t[h] = tlbEntry{vm: -1}
	}
}

// BlockAddr converts a physical page and block offset into a block
// address.
func BlockAddr(physPage uint64, block int) cache.Addr {
	return cache.Addr(physPage*BlocksPerPage + uint64(block))
}

// SavedFraction returns the fraction of physical memory saved by
// deduplication: pages that would have been allocated without dedup
// versus pages actually allocated.
func (m *Mapper) SavedFraction() float64 {
	without := m.PrivatePages + m.SharedPages + m.DedupRefs + m.CoWBreaks
	with := m.nextPhys
	if without == 0 {
		return 0
	}
	return 1 - float64(with)/float64(without)
}

// Package cache provides the storage structures of a tile: generic
// set-associative arrays with protocol metadata (L1, L2, and the
// NCID-style directory cache), MSHRs, and the pointer caches (L1C$,
// L2C$) that Direct Coherence protocols add.
package cache

import (
	"fmt"
	"unsafe"
)

// Addr is a block-aligned physical address: the 40-bit physical address
// of the paper shifted right by 6 (64-byte blocks).
type Addr uint64

// State is a protocol-defined line state. Zero is always Invalid.
type State uint8

// Invalid marks an unused line; all protocols share it.
const Invalid State = 0

// Line is one cache entry. The metadata fields are interpreted by the
// owning protocol:
//
//   - Sharers: a full-map bit vector (flat directory, DiCo) or an
//     area-local bit vector (DiCo-Providers, DiCo-Arin).
//   - Owner: a GenPo — the tile currently holding ownership (-1 none).
//   - ProPos: one provider pointer per area (index within the area,
//     -1 none); only the provider-based protocols use it.
//   - AreaTag: for DiCo-Arin's home entries, the area the sharer vector
//     refers to (-1 when the block is shared between areas).
//
// Field order packs the struct into 32 bytes (wide fields first), so
// two lines share a CPU cache line and the backing arrays stay as
// small as possible — the simulator's footprint is dominated by them.
type Line struct {
	Addr    Addr
	Sharers uint64
	ProPos  [MaxSimAreas]int8
	Owner   int16
	State   State
	Dirty   bool
	AreaTag int8
}

// MaxSimAreas bounds the number of areas the cycle simulator supports
// per chip (the analytic storage model in internal/storage has no such
// bound).
const MaxSimAreas = 8

// ResetMeta clears the protocol metadata, leaving Addr/State alone.
func (l *Line) ResetMeta() {
	l.Dirty = false
	l.Sharers = 0
	l.Owner = -1
	l.ProPos = [MaxSimAreas]int8{-1, -1, -1, -1, -1, -1, -1, -1}
	l.AreaTag = -1
}

// Valid reports whether the line holds a block.
func (l *Line) Valid() bool { return l.State != Invalid }

// Cache is a set-associative array with true-LRU replacement. The
// (valid, address) pair of every way is mirrored in a compact tag
// array so a probe reads 8 bytes per way — an 8-way set is one cache
// line of tag traffic — instead of a whole Line; the LRU stamps live
// in a parallel array touched only on a hit, a fill or a full-set
// victim scan. The tag stores the block address plus one (the zero
// value means empty), so freshly allocated arrays need no
// initialization pass of their own. Only Fill and Invalidate change a
// way's identity, so the mirror has exactly two writers. Invalid lines
// get their metadata defaults from ResetMeta at Fill time, never
// earlier. The arrays are still not free to build: only the first
// cache in a process gets fresh, already-zero pages from the OS, and
// a later one reuses freed heap spans, which the Go runtime clears on
// allocation.
type Cache struct {
	name  string
	sets  int
	ways  int
	shift uint
	lines []Line
	tags  []Addr
	lru   []uint64
	stamp uint64

	// Accesses counts lookups; the power model charges tag energy per
	// lookup and data energy separately (callers report data accesses
	// through their own event counters).
	Accesses uint64
	Misses   uint64
}

// New returns a cache with numSets sets of ways ways. numSets must be a
// power of two so the index can be masked from the address.
func New(name string, numSets, ways int) *Cache {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: numSets %d not a power of two", name, numSets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive", name))
	}
	return &Cache{
		name:  name,
		sets:  numSets,
		ways:  ways,
		lines: make([]Line, numSets*ways),
		tags:  make([]Addr, numSets*ways),
		lru:   make([]uint64, numSets*ways),
	}
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the number of lines.
func (c *Cache) Capacity() int { return c.sets * c.ways }

func (c *Cache) setOf(a Addr) int { return int((uint64(a) >> c.shift) & uint64(c.sets-1)) }

// SetIndexShift makes the set index use address bits above the given
// shift. Structures private to one home bank must skip the bank-select
// bits: those are constant within the bank, and indexing with them
// would leave all but 1/2^shift of the sets unused.
func (c *Cache) SetIndexShift(shift uint) { c.shift = shift }

// Lookup returns the line holding a, or nil. It counts an access and
// refreshes LRU on hit.
func (c *Cache) Lookup(a Addr) *Line {
	c.Accesses++
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			c.stamp++
			c.lru[base+w] = c.stamp
			return &c.lines[base+w]
		}
	}
	c.Misses++
	return nil
}

// Peek is Lookup without access accounting or LRU update; for
// invariant checks and statistics.
func (c *Cache) Peek(a Addr) *Line {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			return &c.lines[base+w]
		}
	}
	return nil
}

// Probe is Peek and Victim fused into one scan of the set, for the
// lookup-then-fill pattern: hit=true means a is present and l is its
// line (untouched: the caller decides on accounting). On a miss l is
// the way Victim would pick — the first empty way (valid=false) or the
// LRU way (valid=true) — so Probe is bit-identical to Peek followed by
// Victim at half the probe traffic.
func (c *Cache) Probe(a Addr) (l *Line, hit, valid bool) {
	base := c.setOf(a) * c.ways
	empty := -1
	for w := 0; w < c.ways; w++ {
		t := c.tags[base+w]
		if t == a+1 {
			return &c.lines[base+w], true, true
		}
		if t == 0 && empty < 0 {
			empty = base + w
		}
	}
	if empty >= 0 {
		return &c.lines[empty], false, false
	}
	victimIdx := base
	victimStamp := c.lru[base]
	for w := 1; w < c.ways; w++ {
		if s := c.lru[base+w]; s < victimStamp {
			victimStamp = s
			victimIdx = base + w
		}
	}
	return &c.lines[victimIdx], false, true
}

// Victim returns the line that would be replaced to make room for a —
// an invalid way if one exists (valid=false), else the LRU way
// (valid=true). The validity comes from the tag scan so callers of an
// empty way never read the (possibly never-touched) Line itself. A
// valid victim still holds its old contents; the caller handles the
// eviction protocol before calling Fill.
func (c *Cache) Victim(a Addr) (victim *Line, valid bool) {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			return &c.lines[base+w], false
		}
	}
	victimIdx := base
	victimStamp := c.lru[base]
	for w := 1; w < c.ways; w++ {
		if s := c.lru[base+w]; s < victimStamp {
			victimStamp = s
			victimIdx = base + w
		}
	}
	return &c.lines[victimIdx], true
}

// Fill installs block a into line l (previously obtained from Victim)
// with the given state, resetting metadata and refreshing LRU.
func (c *Cache) Fill(l *Line, a Addr, s State) {
	l.Addr = a
	l.State = s
	l.ResetMeta()
	idx := c.indexOf(l)
	c.tags[idx] = a + 1
	c.stamp++
	c.lru[idx] = c.stamp
}

// Touch refreshes the LRU position of l.
func (c *Cache) Touch(l *Line) { c.touchLine(l) }

func (c *Cache) touchLine(l *Line) {
	idx := c.indexOf(l)
	c.stamp++
	c.lru[idx] = c.stamp
}

// indexOf recovers the backing-array position of a line returned by
// Lookup/Peek/Victim. Pointer arithmetic instead of a stored index
// keeps Line free of positional state, which lets New skip its own
// initialization pass over the (potentially tens of MB) line array.
func (c *Cache) indexOf(l *Line) int {
	off := uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(unsafe.SliceData(c.lines)))
	idx := int(off / unsafe.Sizeof(Line{}))
	if idx < 0 || idx >= len(c.lines) || &c.lines[idx] != l {
		panic("cache: Touch on foreign line")
	}
	return idx
}

// Invalidate removes block a if present, returning the prior line
// contents and whether it was present.
func (c *Cache) Invalidate(a Addr) (Line, bool) {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			l := &c.lines[base+w]
			old := *l
			l.State = Invalid
			l.ResetMeta()
			c.tags[base+w] = 0
			return old, true
		}
	}
	return Line{}, false
}

// InvalidateLine removes a valid line previously located by
// Lookup/Peek/Probe, returning its prior contents. It is Invalidate
// without the set scan — the caller already paid for the probe.
func (c *Cache) InvalidateLine(l *Line) Line {
	old := *l
	l.State = Invalid
	l.ResetMeta()
	c.tags[c.indexOf(l)] = 0
	return old
}

// CountValid returns the number of valid lines (for occupancy stats).
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != 0 {
			n++
		}
	}
	return n
}

// ForEachValid calls fn for every valid line. fn must not insert or
// invalidate lines.
func (c *Cache) ForEachValid(fn func(*Line)) {
	for i := range c.tags {
		if c.tags[i] != 0 {
			fn(&c.lines[i])
		}
	}
}

// Package cache provides the storage structures of a tile:
// set-associative arrays generic over their way payload (L1, L2, and
// the NCID-style directory cache), MSHRs, and the pointer caches (L1C$,
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

// Line is the way payload of the DiCo family's L1 and L2 arrays. The
// metadata fields are interpreted by the owning protocol:
//
//   - Sharers: an area-local bit vector (a full-map one in DiCo, whose
//     single area spans the chip).
//   - Owner: a GenPo — the tile an L1 copy believes supplies or owns
//     the block (-1 none).
//   - ProPos: one provider pointer per area (index within the area,
//     -1 none); only the provider-based protocols use it.
//   - AreaTag: for DiCo-Arin's home entries, the area the sharer vector
//     refers to (-1 when the block is shared between areas).
//
// The block address is not stored: it lives in the array's tag
// mirror, which hands it out where a caller needs it (AddrOf,
// InvalidateLine, ForEachValid). Wide fields first packs the struct
// into 24 bytes.
type Line struct {
	Sharers uint64
	ProPos  [MaxSimAreas]int8
	Owner   int16
	State   State
	Dirty   bool
	AreaTag int8
}

// BareLine is the way payload of an engine that keeps its coherence
// metadata out of the L1 and L2 — the flat directory, whose sharers
// and owner live in its DirCache: the line state and the dirty bit.
type BareLine struct {
	State State
	Dirty bool
}

// MaxSimAreas bounds the number of areas the cycle simulator supports
// per chip (the analytic storage model in internal/storage has no such
// bound).
const MaxSimAreas = 8

// Array is a set-associative array of P-payload ways with true-LRU
// replacement. The (valid, address) pair of every way lives in a
// compact tag array, so a probe reads 8 bytes per way — an 8-way set
// is one cache line of tag traffic — and the payload carries only the
// fields its engine reads; the LRU stamps live in a parallel array
// touched only on a hit, a fill or a full-set victim scan. The tag
// stores the block address plus one (the zero value means empty), so
// freshly allocated arrays need no initialization pass of their own.
// Only Fill, Invalidate and InvalidateLine change a way's identity, so
// the mirror has exactly three writers. An invalid way gets its
// payload from the array's reset function at Fill time; the hot paths
// never call through the type parameter.
type Array[P any] struct {
	sets  int
	ways  int
	shift uint
	lines []P
	tags  []Addr
	lru   []uint64
	stamp uint64
	reset func(l *P, s State) // writes a fresh payload in state s
}

// Cache is the DiCo family's array, and the one the benchmark probes
// drive.
type Cache = Array[Line]

// newArray returns an array with numSets sets of ways ways whose Fill
// and Invalidate write payloads through reset.
func newArray[P any](name string, numSets, ways int, reset func(l *P, s State)) *Array[P] {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: numSets %d not a power of two", name, numSets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive", name))
	}
	return &Array[P]{
		sets:  numSets,
		ways:  ways,
		lines: make([]P, numSets*ways),
		tags:  make([]Addr, numSets*ways),
		lru:   make([]uint64, numSets*ways),
		reset: reset,
	}
}

// New returns a DiCo-family array with numSets sets of ways ways.
// numSets must be a power of two so the index can be masked from the
// address.
func New(name string, numSets, ways int) *Cache { return newArray(name, numSets, ways, resetLine) }

// NewBare returns an array of BareLine ways, with New's geometry rules.
func NewBare(name string, numSets, ways int) *Array[BareLine] {
	return newArray(name, numSets, ways, resetBare)
}

func resetLine(l *Line, s State) {
	*l = Line{ProPos: [MaxSimAreas]int8{-1, -1, -1, -1, -1, -1, -1, -1}, Owner: -1, State: s, AreaTag: -1}
}

func resetBare(l *BareLine, s State) { *l = BareLine{State: s} }

// Capacity returns the number of ways.
func (c *Array[P]) Capacity() int { return c.sets * c.ways }

func (c *Array[P]) setOf(a Addr) int { return int((uint64(a) >> c.shift) & uint64(c.sets-1)) }

// SetIndexShift makes the set index use address bits above the given
// shift. Structures private to one home bank must skip the bank-select
// bits: those are constant within the bank, and indexing with them
// would leave all but 1/2^shift of the sets unused.
func (c *Array[P]) SetIndexShift(shift uint) { c.shift = shift }

// Lookup returns the line holding a, or nil, refreshing LRU on a hit.
func (c *Array[P]) Lookup(a Addr) *P {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			c.stamp++
			c.lru[base+w] = c.stamp
			return &c.lines[base+w]
		}
	}
	return nil
}

// Peek is Lookup without the LRU update; for invariant checks and
// statistics.
func (c *Array[P]) Peek(a Addr) *P {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			return &c.lines[base+w]
		}
	}
	return nil
}

// Probe scans the set once for the lookup-then-fill pattern: hit=true
// means a is present and l is its line (untouched: the caller decides
// on LRU). On a miss l is the way a fill should use — the first empty
// way (valid=false) or the LRU way (valid=true, still holding its old
// block, whose address AddrOf returns). The validity comes from the tag
// scan, so callers of an empty way never read the (possibly
// never-touched) payload itself.
func (c *Array[P]) Probe(a Addr) (l *P, hit, valid bool) {
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

// Fill installs block a into line l (previously obtained from Probe)
// in state s, resetting the payload and refreshing LRU.
func (c *Array[P]) Fill(l *P, a Addr, s State) {
	c.reset(l, s)
	idx := c.indexOf(l)
	c.tags[idx] = a + 1
	c.stamp++
	c.lru[idx] = c.stamp
}

// Touch refreshes the LRU position of l.
func (c *Array[P]) Touch(l *P) {
	idx := c.indexOf(l)
	c.stamp++
	c.lru[idx] = c.stamp
}

// AddrOf returns the block a valid line holds, read from its tag.
func (c *Array[P]) AddrOf(l *P) Addr { return c.tags[c.indexOf(l)] - 1 }

// indexOf recovers the backing-array position of a line returned by
// Lookup/Peek/Probe. Pointer arithmetic instead of a stored index
// keeps the payload free of positional state. Each payload type gets
// its own instantiation, in which the element size is a constant, so
// the division compiles to a multiply or a shift.
func (c *Array[P]) indexOf(l *P) int {
	off := uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(unsafe.SliceData(c.lines)))
	idx := int(off / unsafe.Sizeof(*l))
	if idx < 0 || idx >= len(c.lines) || &c.lines[idx] != l {
		panic("cache: foreign line")
	}
	return idx
}

// Invalidate removes block a if present, returning the prior line
// contents and whether it was present.
func (c *Array[P]) Invalidate(a Addr) (old P, ok bool) {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			l := &c.lines[base+w]
			old = *l
			c.reset(l, Invalid)
			c.tags[base+w] = 0
			return old, true
		}
	}
	return old, false
}

// InvalidateLine removes a valid line previously located by
// Lookup/Peek/Probe, returning its prior contents and block. It is
// Invalidate without the set scan — the caller already paid for the
// probe.
func (c *Array[P]) InvalidateLine(l *P) (old P, a Addr) {
	idx := c.indexOf(l)
	old, a = *l, c.tags[idx]-1
	c.reset(l, Invalid)
	c.tags[idx] = 0
	return old, a
}

// CountValid returns the number of valid lines (for occupancy stats).
func (c *Array[P]) CountValid() int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != 0 {
			n++
		}
	}
	return n
}

// ForEachValid calls fn for every valid line with its block. fn must
// not insert or invalidate lines.
func (c *Array[P]) ForEachValid(fn func(a Addr, l *P)) {
	for i, t := range c.tags {
		if t != 0 {
			fn(t-1, &c.lines[i])
		}
	}
}

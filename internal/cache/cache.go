// Package cache provides the storage structures of a tile: one
// set-associative array generic over its way payload, which backs the
// L1, the L2, the NCID-style directory cache and the pointer caches
// (L1C$, L2C$) that Direct Coherence protocols add, plus the MSHRs.
package cache

import (
	"fmt"
	"unsafe"
)

// Addr is a block address: a physical byte address shifted right by 6
// (64-byte blocks). Every block address is below MaxAddr.
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
// The block address is not stored: it lives in the array's way
// word, which hands it out where a caller needs it (AddrOf,
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
// and owner live in its directory cache: the line state and the dirty
// bit.
type BareLine struct {
	State State
	Dirty bool
}

// DirLine is the way payload of the flat directory's directory cache:
// the tracked block's sharer vector and owner pointer (-1 none).
type DirLine struct {
	Sharers uint64
	Owner   int16
}

// MaxSimAreas bounds the number of areas the cycle simulator supports
// per chip (the analytic storage model in internal/storage has no such
// bound).
const MaxSimAreas = 8

// Array is a set-associative array of P-payload ways with true-LRU
// replacement. Each way's identity and recency share one 8-byte way
// word: the low addrBits bits hold the block address plus one (zero
// means empty, so a freshly allocated array needs no initialization
// pass of its own) and the high stampBits bits its LRU stamp. A probe
// reads 8 bytes per way, so an 8-way set's tags and stamps are one
// cache line, and the payload carries only the fields its engine
// reads. Only Fill, Invalidate and InvalidateLine change a way's
// identity. An invalid way gets its payload from the array's reset
// function at Fill time; the hot paths never call through the type
// parameter.
//
// The stamp counter is per array. When it reaches stampMax the array
// renormalizes: every set's stamps become that set's recency ranks
// 1..ways and the counter restarts at ways. Victims are only compared
// within a set, so renormalizing never changes a victim choice.
type Array[P any] struct {
	sets  int
	ways  int
	shift uint
	lines []P
	words []uint64 // stamp<<addrBits | block+1; 0 = empty
	stamp uint64
	reset func(l *P, s State) // writes a fresh payload in state s
}

// MaxAddr bounds block addresses: every block the simulator names is
// below it, and Fill rejects one at or past it. Regular frames stay
// far below the mapper's copy-on-write frames (memctrl.cowFrameBase,
// page 2^30), which put block addresses near 2^36.
const MaxAddr Addr = 1 << 40

const (
	addrBits  = 41 // block+1 <= MaxAddr
	addrMask  = 1<<addrBits - 1
	stampBits = 64 - addrBits
	stampMax  = 1<<stampBits - 1
)

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
		words: make([]uint64, numSets*ways),
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

// NewDir returns an array of DirLine ways, with New's geometry rules.
// A directory line has no state: Fill ignores its state argument and
// installs an empty sharer vector and no owner.
func NewDir(name string, numSets, ways int) *Array[DirLine] {
	return newArray(name, numSets, ways, resetDir)
}

func resetLine(l *Line, s State) {
	*l = Line{ProPos: [MaxSimAreas]int8{-1, -1, -1, -1, -1, -1, -1, -1}, Owner: -1, State: s, AreaTag: -1}
}

func resetBare(l *BareLine, s State) { *l = BareLine{State: s} }

func resetDir(l *DirLine, _ State) { *l = DirLine{Owner: -1} }

// Capacity returns the number of ways.
func (c *Array[P]) Capacity() int { return c.sets * c.ways }

// set returns the index of a's set's first way and the set's words.
func (c *Array[P]) set(a Addr) (base int, words []uint64) {
	base = int((uint64(a)>>c.shift)&uint64(c.sets-1)) * c.ways
	return base, c.words[base : base+c.ways : base+c.ways]
}

// SetIndexShift makes the set index use address bits above the given
// shift. Structures private to one home bank must skip the bank-select
// bits: those are constant within the bank, and indexing with them
// would leave all but 1/2^shift of the sets unused.
func (c *Array[P]) SetIndexShift(shift uint) { c.shift = shift }

// Lookup returns the line holding a, or nil, refreshing LRU on a hit.
func (c *Array[P]) Lookup(a Addr) *P {
	base, set := c.set(a)
	tag := uint64(a) + 1
	for w, t := range set {
		if t&addrMask == tag {
			// next may renormalize, which rewrites only stamp bits.
			set[w] = tag | c.next()
			return &c.lines[base+w]
		}
	}
	return nil
}

// Peek is Lookup without the LRU update; for invariant checks and
// statistics.
func (c *Array[P]) Peek(a Addr) *P {
	base, set := c.set(a)
	tag := uint64(a) + 1
	for w, t := range set {
		if t&addrMask == tag {
			return &c.lines[base+w]
		}
	}
	return nil
}

// Probe scans the set once for the lookup-then-fill pattern: hit=true
// means a is present and l is its line (untouched: the caller decides
// on LRU). On a miss l is the way a fill should use — the first empty
// way (valid=false) or the LRU way (valid=true, still holding its old
// block, whose address AddrOf returns). The validity comes from the word
// scan, so callers of an empty way never read the (possibly
// never-touched) payload itself.
func (c *Array[P]) Probe(a Addr) (l *P, hit, valid bool) {
	base, set := c.set(a)
	tag := uint64(a) + 1
	empty := -1
	for w, t := range set {
		if t&addrMask == tag {
			return &c.lines[base+w], true, true
		}
		if t == 0 && empty < 0 {
			empty = w
		}
	}
	if empty >= 0 {
		return &c.lines[base+empty], false, false
	}
	// Every way is valid and the stamps within a set are distinct, so
	// the smallest word holds the smallest stamp.
	victim := 0
	for w := 1; w < len(set); w++ {
		if set[w] < set[victim] {
			victim = w
		}
	}
	return &c.lines[base+victim], false, true
}

// Fill installs block a into line l (previously obtained from Probe)
// in state s, resetting the payload and refreshing LRU.
func (c *Array[P]) Fill(l *P, a Addr, s State) {
	if a >= MaxAddr {
		addrOutOfRange(a)
	}
	c.reset(l, s)
	idx := c.indexOf(l)
	c.words[idx] = c.next() | (uint64(a) + 1)
}

// Touch refreshes the LRU position of l.
func (c *Array[P]) Touch(l *P) {
	idx := c.indexOf(l)
	s := c.next() // may renormalize, which rewrites only stamp bits
	c.words[idx] = c.words[idx]&addrMask | s
}

// next returns a fresh stamp, shifted into place, renormalizing first
// when the counter is at its limit.
func (c *Array[P]) next() uint64 {
	if c.stamp >= stampMax {
		c.renormalize()
	}
	c.stamp++
	return c.stamp << addrBits
}

// renormalize rewrites every set's stamps as the set's recency ranks
// 1..ways (oldest lowest) and restarts the counter at ways, above
// every rank. A set's ranks are all computed before any is written:
// ranking a way against a neighbour already rewritten would compare a
// stamp with a rank.
func (c *Array[P]) renormalize() {
	ranks := make([]uint64, c.ways)
	for base := 0; base < len(c.words); base += c.ways {
		set := c.words[base : base+c.ways]
		for i, w := range set {
			ranks[i] = 1
			for _, o := range set {
				if o != 0 && o>>addrBits < w>>addrBits {
					ranks[i]++
				}
			}
		}
		for i, w := range set {
			if w != 0 {
				set[i] = w&addrMask | ranks[i]<<addrBits
			}
		}
	}
	c.stamp = uint64(c.ways)
}

// addrOutOfRange reports a block address the way word cannot hold.
func addrOutOfRange(a Addr) {
	panic(fmt.Sprintf("cache: block address %#x at or past cache.MaxAddr", uint64(a)))
}

// AddrOf returns the block a valid line holds, read from its way word.
func (c *Array[P]) AddrOf(l *P) Addr { return Addr(c.words[c.indexOf(l)]&addrMask) - 1 }

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
	base, set := c.set(a)
	tag := uint64(a) + 1
	for w, t := range set {
		if t&addrMask == tag {
			l := &c.lines[base+w]
			old = *l
			c.reset(l, Invalid)
			set[w] = 0
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
	old, a = *l, Addr(c.words[idx]&addrMask)-1
	c.reset(l, Invalid)
	c.words[idx] = 0
	return old, a
}

// CountValid returns the number of valid lines (for occupancy stats).
func (c *Array[P]) CountValid() int {
	n := 0
	for _, w := range c.words {
		if w != 0 {
			n++
		}
	}
	return n
}

// ForEachValid calls fn for every valid line with its block. fn must
// not insert or invalidate lines.
func (c *Array[P]) ForEachValid(fn func(a Addr, l *P)) {
	for i, w := range c.words {
		if w != 0 {
			fn(Addr(w&addrMask)-1, &c.lines[i])
		}
	}
}

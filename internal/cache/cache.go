// Package cache provides the storage structures of a tile: one
// set-associative array generic over its way payload, which backs the
// L1, the L2, the NCID-style directory cache and the pointer caches
// (L1C$, L2C$) that Direct Coherence protocols add, plus the MSHRs.
package cache

import (
	"fmt"
	"math/bits"
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
// replacement. Each way's identity and recency share one 4-byte word:
// its tag (the block address without its set-index bits, plus one; 0
// means empty, so a fresh array needs no initialization pass) above
// its recency rank within the set in the low rankBits bits (ways-1 =
// most recent). The payload carries only the fields its engine reads;
// an invalid way gets its payload from reset at Fill time, so the hot
// paths never call through the type parameter.
//
// Promoting a way moves every rank above its own down one, so ranks
// order a set's ways by last use, invalid ways (which keep their rank)
// included. A fresh set is all rank 0 and each first use takes the top
// rank, so once every way is valid the set holds each rank once and
// the least recent way is the one at rank 0.
type Array[P any] struct {
	ways     int
	setMask  uint64   // sets-1
	lowMask  uint64   // 1<<shift - 1: the address bits below the index
	shift    uint8    // the set index starts at this address bit
	setBits  uint8    // log2(sets)
	rankBits uint8    // bits.Len(ways-1)
	rankMask uint32   // 1<<rankBits - 1
	top      uint32   // ways-1: the most recent way's rank
	wayRecip uint64   // ceil(2^32/ways): idx/ways is idx*wayRecip>>32
	bound    Addr     // the first block whose tag does not fit
	words    []uint32 // tag<<rankBits | rank; tag 0 = empty
	lines    []P
	reset    func(l *P, s State) // writes a fresh payload in state s
}

// MaxAddr bounds block addresses: every block the simulator names is
// below it. The mapper's copy-on-write frames start at page 2^30
// (memctrl.cowFrameBase), far above every regular frame, so every
// block is below 2^37. Fill rejects a block at or past its array's own
// bound (Geometry), which every Table III geometry puts above MaxAddr.
const MaxAddr Addr = 1 << 37

// Cache is the DiCo family's array, and the one the benchmark probes
// drive.
type Cache = Array[Line]

// Geometry checks that an array of numSets (a power of two) sets of
// ways ways can be built and returns its block-address bound: a tag
// has 32-bits.Len(ways-1) bits, one value of which marks an empty way,
// and the log2(numSets) index bits are implied by position. ways <= 64
// keeps a block's lookup key within 64 bits, and sets*ways*ways <=
// 2^32 keeps idx*wayRecip>>32 equal to idx/ways.
func Geometry(numSets, ways int) (bound Addr, err error) {
	switch {
	case numSets <= 0 || numSets&(numSets-1) != 0:
		return 0, fmt.Errorf("numSets %d not a power of two", numSets)
	case ways <= 0 || ways > 64:
		return 0, fmt.Errorf("ways %d not in [1, 64]", ways)
	case uint64(numSets)*uint64(ways)*uint64(ways) > 1<<32:
		return 0, fmt.Errorf("%d sets of %d ways is too large", numSets, ways)
	}
	return 1 << (31 - bits.Len(uint(ways-1)) + bits.TrailingZeros(uint(numSets))), nil
}

// newArray returns an array with numSets sets of ways ways whose Fill
// and Invalidate write payloads through reset.
func newArray[P any](name string, numSets, ways int, reset func(l *P, s State)) *Array[P] {
	bound, err := Geometry(numSets, ways)
	if err != nil {
		panic(fmt.Sprintf("cache %s: %v", name, err))
	}
	rankBits := uint(bits.Len(uint(ways - 1)))
	return &Array[P]{
		ways:     ways,
		setMask:  uint64(numSets - 1),
		setBits:  uint8(bits.TrailingZeros(uint(numSets))),
		rankBits: uint8(rankBits),
		rankMask: 1<<rankBits - 1,
		top:      uint32(ways - 1),
		wayRecip: (1<<32 + uint64(ways) - 1) / uint64(ways),
		bound:    bound,
		words:    make([]uint32, numSets*ways),
		lines:    make([]P, numSets*ways),
		reset:    reset,
	}
}

// New returns a DiCo-family array with numSets sets of ways ways, a
// geometry Geometry accepts.
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

// set returns the index of a's set's first way and the set's words.
func (c *Array[P]) set(a Addr) (base int, words []uint32) {
	base = int(uint64(a)>>(c.shift&63)&c.setMask) * c.ways
	return base, c.words[base : base+c.ways : base+c.ways]
}

// key returns a's way word at rank 0. It is 64 bits wide, so a block
// past the bound matches no way.
func (c *Array[P]) key(a Addr) uint64 {
	x := uint64(a)
	return (x&c.lowMask | x>>(c.setBits&63)&^c.lowMask + 1) << (c.rankBits & 63)
}

// SetIndexShift makes the set index use address bits above the given
// shift. Structures private to one home bank must skip the bank-select
// bits: those are constant within the bank, and indexing with them
// would leave all but 1/2^shift of the sets unused. Call it before the
// first Fill.
func (c *Array[P]) SetIndexShift(shift uint) {
	if shift > 31-uint(c.rankBits) { // the bits below the index must fit the tag
		panic(fmt.Sprintf("cache: set-index shift %d too large for %d ways", shift, c.ways))
	}
	c.shift, c.lowMask = uint8(shift), 1<<shift-1
}

// Lookup returns the line holding a, or nil, refreshing LRU on a hit.
func (c *Array[P]) Lookup(a Addr) *P {
	base, set := c.set(a)
	key, m := c.key(a), uint64(c.rankMask)
	for w, t := range set {
		if r := uint64(t) - key; r <= m { // a's way: r is its rank
			if r != uint64(c.top) {
				c.promote(set, w)
			}
			return &c.lines[base+w]
		}
	}
	return nil
}

// Peek is Lookup without the LRU update; for invariant checks and
// statistics.
func (c *Array[P]) Peek(a Addr) *P {
	base, set := c.set(a)
	key, m := c.key(a), uint64(c.rankMask)
	for w, t := range set {
		if uint64(t)-key <= m {
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
	key, m := c.key(a), c.rankMask
	empty := -1
	for w, t := range set {
		if uint64(t)-key <= uint64(m) {
			return &c.lines[base+w], true, true
		}
		if t <= m && empty < 0 {
			empty = w
		}
	}
	if empty >= 0 {
		return &c.lines[base+empty], false, false
	}
	victim := 0 // every way is valid, so exactly one has rank 0
	for w, t := range set {
		if t&m == 0 {
			victim = w
		}
	}
	return &c.lines[base+victim], false, true
}

// Fill installs block a into line l (previously obtained from Probe)
// in state s, resetting the payload and refreshing LRU.
func (c *Array[P]) Fill(l *P, a Addr, s State) {
	if a >= c.bound {
		panic(fmt.Sprintf("cache: block address %#x at or past the array's bound %#x", uint64(a), uint64(c.bound)))
	}
	base, set := c.set(a)
	w := c.indexOf(l) - base // l must be in a's set
	c.reset(l, s)
	r := set[w] & c.rankMask
	set[w] = uint32(c.key(a)) | r
	if r != c.top {
		c.promote(set, w)
	}
}

// Touch refreshes the LRU position of l.
func (c *Array[P]) Touch(l *P) {
	idx := c.indexOf(l)
	base := int(uint64(idx)*c.wayRecip>>32) * c.ways
	set := c.words[base : base+c.ways : base+c.ways]
	if w := idx - base; set[w]&c.rankMask != c.top {
		c.promote(set, w)
	}
}

// promote gives way w the top rank of its set and moves every way
// ranked above it down one. Branch-free: with ranks below 2^31, r-rank
// wraps to its top bit exactly when rank > r.
func (c *Array[P]) promote(set []uint32, w int) {
	m := c.rankMask
	t := set[w]
	r := t & m
	for i, u := range set {
		set[i] = u - (r-u&m)>>31
	}
	set[w] = t - r + c.top
}

// AddrOf returns the block a valid line holds, read from its way word.
func (c *Array[P]) AddrOf(l *P) Addr { return c.addrAt(c.indexOf(l)) }

// addrAt returns the block valid way idx holds: its tag minus one with
// the set index put back.
func (c *Array[P]) addrAt(idx int) Addr {
	x := uint64(c.words[idx]>>(c.rankBits&31)) - 1
	set := uint64(idx) * c.wayRecip >> 32
	return Addr(x&c.lowMask | set<<(c.shift&63) | x&^c.lowMask<<(c.setBits&63))
}

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
	if l := c.Peek(a); l != nil {
		old, _ = c.InvalidateLine(l)
		return old, true
	}
	return old, false
}

// InvalidateLine removes a valid line previously located by
// Lookup/Peek/Probe, returning its prior contents and block. It is
// Invalidate without the set scan — the caller already paid for the
// probe.
func (c *Array[P]) InvalidateLine(l *P) (old P, a Addr) {
	idx := c.indexOf(l)
	old, a = *l, c.addrAt(idx)
	c.reset(l, Invalid)
	c.words[idx] &= c.rankMask // the rank stays
	return old, a
}

// ForEachValid calls fn for every valid line with its block. fn must
// not insert or invalidate lines.
func (c *Array[P]) ForEachValid(fn func(a Addr, l *P)) {
	for i, w := range c.words {
		if w > c.rankMask {
			fn(c.addrAt(i), &c.lines[i])
		}
	}
}

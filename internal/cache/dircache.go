package cache

import (
	"fmt"
	"unsafe"
)

// DirEntry is the payload of one directory-cache way: the tracked
// block's sharer vector and owner pointer, with the way's LRU stamp
// interleaved. The flat directory touches sharers or owner on nearly
// every probe that touches the LRU stamp, so keeping the three in one
// 24-byte record means a home-side directory operation dirties a
// single cache line of metadata where an Array, whose LRU stamps live
// apart from its payloads, spreads the same traffic over three arrays.
type DirEntry struct {
	lru     uint64
	Sharers uint64
	Owner   int16
}

// DirCache is the NCID directory cache: a set-associative array with
// true-LRU replacement, bit-identical in lookup, victim choice and
// accounting to an Array of the same geometry, but storing only
// the directory's working fields. The block identity lives in the
// compact tag mirror (address plus one; zero means empty), exactly as
// in Array, so probes scan 8 bytes per way.
type DirCache struct {
	name  string
	sets  int
	ways  int
	shift uint
	tags  []Addr
	ents  []DirEntry
	stamp uint64
}

// NewDirCache returns a directory cache with numSets sets of ways
// ways. numSets must be a power of two.
func NewDirCache(name string, numSets, ways int) *DirCache {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: numSets %d not a power of two", name, numSets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive", name))
	}
	return &DirCache{
		name: name,
		sets: numSets,
		ways: ways,
		tags: make([]Addr, numSets*ways),
		ents: make([]DirEntry, numSets*ways),
	}
}

// SetIndexShift makes the set index use address bits above the given
// shift (see Array.SetIndexShift).
func (c *DirCache) SetIndexShift(shift uint) { c.shift = shift }

func (c *DirCache) setOf(a Addr) int { return int((uint64(a) >> c.shift) & uint64(c.sets-1)) }

// Peek returns the entry tracking a, or nil. No accounting, no LRU
// update.
func (c *DirCache) Peek(a Addr) *DirEntry {
	base := c.setOf(a) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == a+1 {
			return &c.ents[base+w]
		}
	}
	return nil
}

// Probe scans the set once for the lookup-then-allocate pattern:
// hit=true means a is tracked and e is its entry (untouched — the
// caller decides on accounting). On a miss e is the way a fill should
// use — the first empty way (valid=false) or the LRU way (valid=true,
// with victimAddr the block it still tracks). The choice is
// bit-identical to Array.Probe on the same geometry and history.
func (c *DirCache) Probe(a Addr) (e *DirEntry, victimAddr Addr, hit, valid bool) {
	base := c.setOf(a) * c.ways
	empty := -1
	for w := 0; w < c.ways; w++ {
		t := c.tags[base+w]
		if t == a+1 {
			return &c.ents[base+w], 0, true, true
		}
		if t == 0 && empty < 0 {
			empty = base + w
		}
	}
	if empty >= 0 {
		return &c.ents[empty], 0, false, false
	}
	victimIdx := base
	victimStamp := c.ents[base].lru
	for w := 1; w < c.ways; w++ {
		if s := c.ents[base+w].lru; s < victimStamp {
			victimStamp = s
			victimIdx = base + w
		}
	}
	return &c.ents[victimIdx], c.tags[victimIdx] - 1, false, true
}

// Touch refreshes the LRU position of e.
func (c *DirCache) Touch(e *DirEntry) {
	c.stamp++
	e.lru = c.stamp
}

// Fill installs block a into entry e (previously obtained from Probe),
// refreshing LRU. Sharers and Owner are left for the caller to set —
// every allocation site overwrites both immediately.
func (c *DirCache) Fill(e *DirEntry, a Addr) {
	c.tags[c.indexOf(e)] = a + 1
	c.stamp++
	e.lru = c.stamp
}

// indexOf recovers the backing-array position of an entry returned by
// Peek/Probe.
func (c *DirCache) indexOf(e *DirEntry) int {
	off := uintptr(unsafe.Pointer(e)) - uintptr(unsafe.Pointer(unsafe.SliceData(c.ents)))
	idx := int(off / unsafe.Sizeof(DirEntry{}))
	if idx < 0 || idx >= len(c.ents) || &c.ents[idx] != e {
		panic("cache: foreign directory entry")
	}
	return idx
}

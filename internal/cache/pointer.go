package cache

import "fmt"

// PointerCache implements the L1 Coherence Cache (L1C$) and L2
// Coherence Cache (L2C$) of Direct Coherence protocols: a small
// set-associative array mapping block addresses to a GenPo (a tile
// number). In the L1C$ the pointer is a *prediction* of the block's
// supplier; in the L2C$ it is the *precise* identity of the L1 cache
// holding ownership.
type PointerCache struct {
	sets  int
	ways  int
	shift uint
	addrs []Addr
	ptrs  []int16
	valid []bool
	lru   []uint64
	stamp uint64
}

// NewPointerCache returns a pointer cache with numSets (power of two)
// sets of ways ways.
func NewPointerCache(name string, numSets, ways int) *PointerCache {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: numSets %d not a power of two", name, numSets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive", name))
	}
	n := numSets * ways
	return &PointerCache{
		sets:  numSets,
		ways:  ways,
		addrs: make([]Addr, n),
		ptrs:  make([]int16, n),
		valid: make([]bool, n),
		lru:   make([]uint64, n),
	}
}

func (p *PointerCache) setOf(a Addr) int { return int((uint64(a) >> p.shift) & uint64(p.sets-1)) }

// SetIndexShift makes the set index skip the low shift bits (the bank
// selector) of the address; see Array.SetIndexShift.
func (p *PointerCache) SetIndexShift(shift uint) { p.shift = shift }

// Lookup returns the pointer stored for a, if any, refreshing the
// entry's LRU position on a hit.
func (p *PointerCache) Lookup(a Addr) (ptr int16, ok bool) {
	if i := p.find(a); i >= 0 {
		p.stamp++
		p.lru[i] = p.stamp
		return p.ptrs[i], true
	}
	return 0, false
}

// Peek is Lookup without the LRU update: reading it leaves later
// victim choices unchanged, so debug dumps and invariant checks use it.
func (p *PointerCache) Peek(a Addr) (ptr int16, ok bool) {
	if i := p.find(a); i >= 0 {
		return p.ptrs[i], true
	}
	return 0, false
}

// find returns the index of a's entry, or -1.
func (p *PointerCache) find(a Addr) int {
	base := p.setOf(a) * p.ways
	for w := 0; w < p.ways; w++ {
		if i := base + w; p.valid[i] && p.addrs[i] == a {
			return i
		}
	}
	return -1
}

// Update stores ptr for a, inserting (and possibly evicting LRU) if a
// is absent. It returns the evicted address and its stored pointer if
// an insertion displaced a valid entry — the pointer identifies the
// displaced block's owner, so the homes can send recalls directly
// instead of scanning every tile's L1.
func (p *PointerCache) Update(a Addr, ptr int16) (evicted Addr, evictedPtr int16, displaced bool) {
	base := p.setOf(a) * p.ways
	freeIdx, victimIdx := -1, base
	var victimStamp uint64 = ^uint64(0)
	for w := 0; w < p.ways; w++ {
		i := base + w
		if p.valid[i] && p.addrs[i] == a {
			p.ptrs[i] = ptr
			p.stamp++
			p.lru[i] = p.stamp
			return 0, 0, false
		}
		if !p.valid[i] {
			if freeIdx < 0 {
				freeIdx = i
			}
		} else if p.lru[i] < victimStamp {
			victimStamp = p.lru[i]
			victimIdx = i
		}
	}
	idx := freeIdx
	if idx < 0 {
		idx = victimIdx
		evicted = p.addrs[idx]
		evictedPtr = p.ptrs[idx]
		displaced = true
	}
	p.addrs[idx] = a
	p.ptrs[idx] = ptr
	p.valid[idx] = true
	p.stamp++
	p.lru[idx] = p.stamp
	return evicted, evictedPtr, displaced
}

// Invalidate removes a's entry, reporting whether it existed.
func (p *PointerCache) Invalidate(a Addr) bool {
	if i := p.find(a); i >= 0 {
		p.valid[i] = false
		return true
	}
	return false
}

// CountValid returns the number of valid entries.
func (p *PointerCache) CountValid() int {
	n := 0
	for _, v := range p.valid {
		if v {
			n++
		}
	}
	return n
}

package cache

// PointerCache implements the L1 Coherence Cache (L1C$) and L2
// Coherence Cache (L2C$) of Direct Coherence protocols: a small
// set-associative array mapping block addresses to a GenPo (a tile
// number). In the L1C$ the pointer is a *prediction* of the block's
// supplier; in the L2C$ it is the *precise* identity of the L1 cache
// holding ownership.
type PointerCache struct {
	name  string
	sets  int
	ways  int
	shift uint
	addrs []Addr
	ptrs  []int16
	valid []bool
	lru   []uint64
	stamp uint64

	Accesses uint64
	Hits     uint64
}

// NewPointerCache returns a pointer cache with numSets (power of two)
// sets of ways ways.
func NewPointerCache(name string, numSets, ways int) *PointerCache {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("cache: pointer cache sets not a power of two")
	}
	if ways <= 0 {
		panic("cache: pointer cache ways must be positive")
	}
	n := numSets * ways
	return &PointerCache{
		name:  name,
		sets:  numSets,
		ways:  ways,
		addrs: make([]Addr, n),
		ptrs:  make([]int16, n),
		valid: make([]bool, n),
		lru:   make([]uint64, n),
	}
}

// Name returns the structure's configured name.
func (p *PointerCache) Name() string { return p.name }

// Capacity returns the number of entries.
func (p *PointerCache) Capacity() int { return p.sets * p.ways }

func (p *PointerCache) setOf(a Addr) int { return int((uint64(a) >> p.shift) & uint64(p.sets-1)) }

// SetIndexShift makes the set index skip the low shift bits (the bank
// selector) of the address; see Cache.SetIndexShift.
func (p *PointerCache) SetIndexShift(shift uint) { p.shift = shift }

// Lookup returns the pointer stored for a, if any.
func (p *PointerCache) Lookup(a Addr) (ptr int16, ok bool) {
	p.Accesses++
	base := p.setOf(a) * p.ways
	for w := 0; w < p.ways; w++ {
		i := base + w
		if p.valid[i] && p.addrs[i] == a {
			p.stamp++
			p.lru[i] = p.stamp
			p.Hits++
			return p.ptrs[i], true
		}
	}
	return 0, false
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
	base := p.setOf(a) * p.ways
	for w := 0; w < p.ways; w++ {
		i := base + w
		if p.valid[i] && p.addrs[i] == a {
			p.valid[i] = false
			return true
		}
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

// HitRate returns Hits/Accesses (0 when never accessed).
func (p *PointerCache) HitRate() float64 {
	if p.Accesses == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Accesses)
}

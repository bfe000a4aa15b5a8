package cache

// PointerCache implements the L1 Coherence Cache (L1C$) and L2
// Coherence Cache (L2C$) of Direct Coherence protocols: a small
// set-associative array mapping block addresses to a GenPo (a tile
// number). In the L1C$ the pointer is a *prediction* of the block's
// supplier; in the L2C$ it is the *precise* identity of the L1 cache
// holding ownership.
type PointerCache struct {
	arr Array[int16]
}

// NewPointerCache returns a pointer cache with numSets (power of two)
// sets of ways ways.
func NewPointerCache(name string, numSets, ways int) *PointerCache {
	return &PointerCache{*newArray(name, numSets, ways, resetPtr)}
}

func resetPtr(p *int16, _ State) { *p = 0 }

// SetIndexShift makes the set index skip the low shift bits (the bank
// selector) of the address; see Array.SetIndexShift.
func (p *PointerCache) SetIndexShift(shift uint) { p.arr.SetIndexShift(shift) }

// Lookup returns the pointer stored for a, if any, refreshing the
// entry's LRU position on a hit.
func (p *PointerCache) Lookup(a Addr) (ptr int16, ok bool) {
	if l := p.arr.Lookup(a); l != nil {
		return *l, true
	}
	return 0, false
}

// Peek is Lookup without the LRU update: reading it leaves later
// victim choices unchanged, so debug dumps and invariant checks use it.
func (p *PointerCache) Peek(a Addr) (ptr int16, ok bool) {
	if l := p.arr.Peek(a); l != nil {
		return *l, true
	}
	return 0, false
}

// Update stores ptr for a, inserting (and possibly evicting LRU) if a
// is absent. It returns the evicted address and its stored pointer if
// an insertion displaced a valid entry — the pointer identifies the
// displaced block's owner, so the homes can send recalls directly
// instead of scanning every tile's L1.
func (p *PointerCache) Update(a Addr, ptr int16) (evicted Addr, evictedPtr int16, displaced bool) {
	l, hit, valid := p.arr.Probe(a)
	if hit {
		*l = ptr
		p.arr.Touch(l)
		return 0, 0, false
	}
	if valid {
		evicted, evictedPtr, displaced = p.arr.AddrOf(l), *l, true
	}
	p.arr.Fill(l, a, Invalid)
	*l = ptr
	return evicted, evictedPtr, displaced
}

// Invalidate removes a's entry, reporting whether it existed.
func (p *PointerCache) Invalidate(a Addr) bool {
	_, ok := p.arr.Invalidate(a)
	return ok
}

// CountValid returns the number of valid entries.
func (p *PointerCache) CountValid() (n int) { p.arr.ForEachValid(func(Addr, *int16) { n++ }); return n }

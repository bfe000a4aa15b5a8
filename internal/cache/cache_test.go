package cache

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// countValid returns the number of valid ways.
func (c *Array[P]) countValid() int {
	n := 0
	c.ForEachValid(func(Addr, *P) { n++ })
	return n
}

// fillBlock installs a block through the Probe/Fill pair, as the
// protocol engines do.
func fillBlock(c *Cache, a Addr, s State) {
	v, _, _ := c.Probe(a)
	c.Fill(v, a, s)
}

func TestCacheLookupMissThenHit(t *testing.T) {
	c := New("l1", 4, 2)
	if c.Lookup(0x100) != nil {
		t.Fatal("hit in empty cache")
	}
	v, hit, valid := c.Probe(0x100)
	if v == nil || hit || valid {
		t.Fatal("no invalid victim in empty cache")
	}
	c.Fill(v, 0x100, State(1))
	l := c.Lookup(0x100)
	if l == nil || c.AddrOf(l) != 0x100 || l.State != State(1) {
		t.Fatal("fill then lookup failed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New("l1", 1, 2) // one set, two ways
	a, b, d := Addr(1), Addr(2), Addr(3)
	fillBlock(c, a, 1)
	fillBlock(c, b, 1)
	c.Lookup(a) // a is now MRU
	v, _, valid := c.Probe(d)
	if !valid || c.AddrOf(v) != b {
		t.Errorf("victim = %#x (valid %v), want %#x (LRU)", c.AddrOf(v), valid, b)
	}
	c.Fill(v, d, 1)
	if c.Peek(b) != nil {
		t.Error("evicted block still present")
	}
	if c.Peek(a) == nil || c.Peek(d) == nil {
		t.Error("resident blocks lost")
	}
}

func TestCacheSetIsolation(t *testing.T) {
	c := New("l1", 4, 1)
	// Addresses mapping to different sets must not evict each other.
	for i := Addr(0); i < 4; i++ {
		fillBlock(c, i, 1)
	}
	for i := Addr(0); i < 4; i++ {
		if c.Peek(i) == nil {
			t.Fatalf("block %d evicted despite distinct sets", i)
		}
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := New("l1", 2, 2)
	fillBlock(c, 5, 2)
	old, ok := c.Invalidate(5)
	if !ok || old.State != 2 {
		t.Fatal("invalidate did not return prior contents")
	}
	if c.Peek(5) != nil {
		t.Fatal("block present after invalidate")
	}
	if _, ok := c.Invalidate(5); ok {
		t.Fatal("double invalidate reported success")
	}
	fillBlock(c, 7, 3)
	old, a := c.InvalidateLine(c.Peek(7))
	if a != 7 || old.State != 3 || c.Peek(7) != nil {
		t.Fatalf("InvalidateLine = %+v, %#x; want state 3 at 0x7, gone", old, a)
	}
}

func TestCacheMetaReset(t *testing.T) {
	c := New("l1", 2, 1)
	v, _, _ := c.Probe(1)
	c.Fill(v, 1, 1)
	v.Sharers = 0xff
	v.Owner = 3
	v.ProPos[0] = 2
	v.Dirty = true
	c.Invalidate(1)
	v2, _, _ := c.Probe(1)
	c.Fill(v2, 1, 1)
	if v2.Sharers != 0 || v2.Owner != -1 || v2.ProPos[0] != -1 || v2.AreaTag != -1 || v2.Dirty {
		t.Error("Fill did not reset metadata")
	}
	b := NewBare("l1", 2, 1)
	w, _, _ := b.Probe(1)
	b.Fill(w, 1, 2)
	w.Dirty = true
	b.Invalidate(1)
	w, _, _ = b.Probe(1)
	b.Fill(w, 1, 1)
	if *w != (BareLine{State: 1}) {
		t.Errorf("bare Fill left %+v", *w)
	}
}

// TestWayPayloadSizes pins the bytes of each way: one 4-byte word for
// the tag and the LRU rank, plus the payload — the DiCo family's Line
// (no address: the way word holds it), the directory's state-and-dirty
// BareLine and its directory cache's DirLine. Every Table III array
// (L1, L2, the 9-way directory cache, L1C$/L2C$) holds MaxAddr.
func TestWayPayloadSizes(t *testing.T) {
	var c Cache
	if got := unsafe.Sizeof(c.words[0]); got != 4 {
		t.Errorf("way word = %d bytes, want 4", got)
	}
	for _, g := range []struct{ sets, ways int }{{512, 4}, {2048, 8}, {2048, 9}} {
		if b, _ := Geometry(g.sets, g.ways); b < MaxAddr {
			t.Errorf("%d sets x %d ways: bound %#x below MaxAddr %#x", g.sets, g.ways, uint64(b), uint64(MaxAddr))
		}
	}
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Errorf("sizeof(Line) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(BareLine{}); got > 2 {
		t.Errorf("sizeof(BareLine) = %d, want <= 2", got)
	}
	if got := unsafe.Sizeof(DirLine{}); got > 16 {
		t.Errorf("sizeof(DirLine) = %d, want <= 16", got)
	}
}

// TestFillRejectsAddrPastMax: the largest block below an array's bound
// round-trips through the way word, MaxAddr-1 does so in the Table III
// L1, and a block at the bound would not fit and panics by name.
func TestFillRejectsAddrPastMax(t *testing.T) {
	for _, c := range []*Cache{New("l1", 512, 4), New("tiny", 2, 2)} {
		for _, a := range []Addr{MaxAddr - 1, c.bound - 1} {
			if a >= c.bound {
				continue
			}
			fillBlock(c, a, 1)
			if l := c.Peek(a); l == nil || c.AddrOf(l) != a {
				t.Fatalf("block %#x did not round-trip", uint64(a))
			}
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "bound") {
					t.Errorf("Fill(%#x) panicked with %q, want the bound panic", uint64(c.bound), msg)
				}
			}()
			fillBlock(c, c.bound, 1)
		}()
	}
}

func TestCacheCountValidAndForEach(t *testing.T) {
	c := New("l2", 8, 2)
	for i := Addr(0); i < 5; i++ {
		fillBlock(c, i, State(i+1))
	}
	if got := c.countValid(); got != 5 {
		t.Errorf("CountValid = %d, want 5", got)
	}
	seen := 0
	c.ForEachValid(func(a Addr, l *Line) {
		seen++
		if l.State != State(a+1) {
			t.Errorf("ForEachValid: block %#x carries state %d, want %d", a, l.State, a+1)
		}
	})
	if seen != 5 {
		t.Errorf("ForEachValid visited %d, want 5", seen)
	}
}

func TestCachePropertyNoDuplicates(t *testing.T) {
	c := New("p", 8, 4)
	if err := quick.Check(func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := Addr(a % 256)
			if c.Lookup(addr) == nil {
				fillBlock(c, addr, 1)
			}
		}
		// No address may appear twice.
		seen := make(map[Addr]int)
		c.ForEachValid(func(a Addr, _ *Line) { seen[a]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return c.countValid() <= len(c.words)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// probeWay is Probe reporting the chosen way's index and, for a valid
// victim, its block, so arrays of different payloads compare.
func (c *Array[P]) probeWay(a Addr) (way int, victim Addr, hit, valid bool) {
	l, hit, valid := c.Probe(a)
	if valid && !hit {
		victim = c.AddrOf(l)
	}
	return c.indexOf(l), victim, hit, valid
}

// refill completes probeWay as the engines do: touch on a hit, fill
// otherwise.
func (c *Array[P]) refill(a Addr, way int, hit bool) {
	if hit {
		c.Touch(&c.lines[way])
	} else {
		c.Fill(&c.lines[way], a, 1)
	}
}

func (c *Array[P]) invalidate(a Addr) bool { _, ok := c.Invalidate(a); return ok }

// wayArray is an Array of any payload, seen through the helpers above.
type wayArray interface {
	SetIndexShift(uint)
	probeWay(Addr) (int, Addr, bool, bool)
	refill(Addr, int, bool)
	invalidate(Addr) bool
}

// TestPayloadsPickSameVictims drives the four payload instantiations —
// the DiCo family's Line, the directory's BareLine and DirLine, and
// the pointer caches' int16 — through one seeded random history of
// probes, touches, fills and invalidations: every step must hit or
// miss alike and pick the same way holding the same victim block.
// Replacement depends only on the way words, never on the payload.
func TestPayloadsPickSameVictims(t *testing.T) {
	const sets, ways, span = 8, 4, 96
	rng := rand.New(rand.NewSource(7))
	arrays := []wayArray{New("l", sets, ways), NewBare("b", sets, ways), NewDir("d", sets, ways),
		&NewPointerCache("p", sets, ways).arr}
	for _, c := range arrays {
		c.SetIndexShift(1)
	}
	for step := 0; step < 20000; step++ {
		a := Addr(rng.Intn(span))
		inval := rng.Intn(4) == 0
		var way0 int
		var victim0 Addr
		var hit0, valid0 bool
		for i, c := range arrays {
			if inval {
				if ok := c.invalidate(a); i == 0 {
					hit0 = ok
				} else if ok != hit0 {
					t.Fatalf("step %d: Invalidate(%#x) = %v on array %d, %v on array 0", step, a, ok, i, hit0)
				}
				continue
			}
			way, victim, hit, valid := c.probeWay(a)
			if i == 0 {
				way0, victim0, hit0, valid0 = way, victim, hit, valid
			} else if way != way0 || victim != victim0 || hit != hit0 || valid != valid0 {
				t.Fatalf("step %d: Probe(%#x) array %d = (way %d victim %#x hit %v valid %v), array 0 = (way %d victim %#x hit %v valid %v)",
					step, a, i, way, victim, hit, valid, way0, victim0, hit0, valid0)
			}
			c.refill(a, way, hit)
		}
	}
}

func TestCacheBadGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { New("x", 3, 2) },
		func() { New("x", 0, 2) },
		func() { New("x", 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPointerCacheBasics(t *testing.T) {
	p := NewPointerCache("l1c", 4, 2)
	if _, ok := p.Lookup(9); ok {
		t.Fatal("hit in empty pointer cache")
	}
	p.Update(9, 42)
	ptr, ok := p.Lookup(9)
	if !ok || ptr != 42 {
		t.Fatalf("lookup = %d,%v want 42,true", ptr, ok)
	}
	p.Update(9, 7) // overwrite
	if ptr, _ := p.Lookup(9); ptr != 7 {
		t.Errorf("overwrite failed: %d", ptr)
	}
	if ptr, ok := p.Peek(9); !ok || ptr != 7 {
		t.Errorf("peek = %d,%v want 7,true", ptr, ok)
	}
}

func TestPointerCacheEviction(t *testing.T) {
	p := NewPointerCache("l1c", 1, 2)
	p.Update(1, 10)
	p.Update(2, 20)
	p.Lookup(1) // 1 MRU
	ev, evPtr, disp := p.Update(3, 30)
	if !disp || ev != 2 || evPtr != 20 {
		t.Errorf("evicted %d ptr %d (displaced %v), want 2 20 true", ev, evPtr, disp)
	}
	if _, ok := p.Lookup(2); ok {
		t.Error("evicted entry still present")
	}
}

// TestPointerCachePeekKeepsLRU: unlike Lookup, Peek must not make the
// entry most recently used, so the next insertion still displaces it.
func TestPointerCachePeekKeepsLRU(t *testing.T) {
	p := NewPointerCache("l2c", 1, 2)
	p.Update(1, 10)
	p.Update(2, 20)
	if _, ok := p.Peek(1); !ok {
		t.Fatal("peek missed a present entry")
	}
	if ev, _, disp := p.Update(3, 30); !disp || ev != 1 {
		t.Errorf("evicted %d (displaced %v), want 1: Peek refreshed LRU", ev, disp)
	}
}

func TestPointerCacheInvalidate(t *testing.T) {
	p := NewPointerCache("l2c", 2, 1)
	p.Update(4, 1)
	if !p.Invalidate(4) {
		t.Fatal("invalidate missed present entry")
	}
	if p.Invalidate(4) {
		t.Fatal("double invalidate succeeded")
	}
	if p.CountValid() != 0 {
		t.Fatal("entries remain after invalidate")
	}
}

func TestMSHRLifecycle(t *testing.T) {
	m := NewMSHR(2)
	e := m.Allocate(0x10, false, 100)
	if e.Addr != 0x10 || e.Write {
		t.Fatal("entry fields wrong")
	}
	if got, ok := m.Lookup(0x10); !ok || got != e {
		t.Fatal("lookup after allocate failed")
	}
	if m.Outstanding() != 1 {
		t.Fatal("outstanding wrong")
	}
	m.Allocate(0x20, true, 101)
	if !m.Full() {
		t.Fatal("MSHR should be full at capacity 2")
	}
	m.Release(0x10)
	if m.Full() || m.Outstanding() != 1 {
		t.Fatal("release did not free capacity")
	}
}

func TestMSHRDone(t *testing.T) {
	e := &MSHREntry{}
	if e.Done() {
		t.Fatal("entry done before data")
	}
	e.DataReceived = true
	if !e.Done() {
		t.Fatal("entry with data and no pending acks should be done")
	}
	e.SharerAcks = 2
	if e.Done() {
		t.Fatal("done with pending sharer acks")
	}
	e.SharerAcks = 0
	e.ProviderAcks = 1
	if e.Done() {
		t.Fatal("done with pending provider acks")
	}
	e.ProviderAcks = 0
	e.HomeAck = 1
	if e.Done() {
		t.Fatal("done with pending home ack")
	}
}

func TestMSHRPanics(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, false, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double allocation did not panic")
			}
		}()
		m.Allocate(1, false, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overflow did not panic")
			}
		}()
		m.Allocate(2, false, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release of absent entry did not panic")
			}
		}()
		m.Release(99)
	}()
}

func TestMSHRUnlimited(t *testing.T) {
	m := NewMSHR(0)
	for i := Addr(0); i < 100; i++ {
		m.Allocate(i, false, 0)
	}
	if m.Full() {
		t.Error("unlimited MSHR reported full")
	}
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := New("l2", 1024, 8)
	for i := Addr(0); i < 8192; i++ {
		fillBlock(c, i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(Addr(i) % 8192)
	}
}

func BenchmarkPointerCacheUpdate(b *testing.B) {
	p := NewPointerCache("l1c", 512, 4)
	for i := 0; i < b.N; i++ {
		p.Update(Addr(i%4096), int16(i%64))
	}
}

func TestSetIndexShift(t *testing.T) {
	// With a 6-bit shift, addresses that differ only in the low 6 bits
	// (the bank-select bits) must map to the same set, and addresses
	// differing in bit 6 must map to different sets.
	c := New("l2", 4, 1)
	c.SetIndexShift(6)
	base := Addr(0x1000)
	fillBlock(c, base, 1)
	// Same set: fills with a low-bit variant must evict (1-way).
	variant := base | 0x3f
	fillBlock(c, variant, 1)
	if c.Peek(base) != nil {
		t.Error("low-bit variant did not share the set (shift ignored)")
	}
	// Different set: bit 6 set.
	other := base | 0x40
	fillBlock(c, other, 1)
	if c.Peek(variant) == nil {
		t.Error("bit-6 variant evicted the other set's line")
	}
}

func TestPointerCacheSetIndexShift(t *testing.T) {
	p := NewPointerCache("l2c", 2, 1)
	p.SetIndexShift(6)
	p.Update(0x1000, 1)
	if ev, _, disp := p.Update(0x103f, 2); !disp || ev != 0x1000 {
		t.Errorf("same-set update did not displace: %v %v", ev, disp)
	}
}

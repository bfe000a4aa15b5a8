package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refArray is the reference model for Array: the full block and an
// unbounded 64-bit LRU stamp of every way in separate arrays.
type refArray[P comparable] struct {
	ways  int
	sets  int
	shift uint
	tags  []Addr // block+1; 0 = empty
	lru   []uint64
	lines []P
	stamp uint64
	reset func(*P, State)
}

func newRef[P comparable](sets, ways int, shift uint, reset func(*P, State)) *refArray[P] {
	return &refArray[P]{ways: ways, sets: sets, shift: shift, tags: make([]Addr, sets*ways),
		lru: make([]uint64, sets*ways), lines: make([]P, sets*ways), reset: reset}
}

func (r *refArray[P]) base(a Addr) int { return int((uint64(a)>>r.shift)&uint64(r.sets-1)) * r.ways }

// find returns the way holding a, or -1.
func (r *refArray[P]) find(a Addr) int {
	for i := r.base(a); i < r.base(a)+r.ways; i++ {
		if r.tags[i] == a+1 {
			return i
		}
	}
	return -1
}

// probe returns a's way on a hit, else the first empty way, else the
// set's least recently used way.
func (r *refArray[P]) probe(a Addr) (way int, hit, valid bool) {
	if i := r.find(a); i >= 0 {
		return i, true, true
	}
	victim := -1
	for i := r.base(a); i < r.base(a)+r.ways; i++ {
		if r.tags[i] == 0 {
			return i, false, false
		}
		if victim < 0 || r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	return victim, false, true
}

func (r *refArray[P]) touch(i int) {
	r.stamp++
	r.lru[i] = r.stamp
}

func (r *refArray[P]) fill(i int, a Addr, s State) {
	r.reset(&r.lines[i], s)
	r.tags[i] = a + 1
	r.touch(i)
}

func (r *refArray[P]) invalidate(i int) {
	r.reset(&r.lines[i], Invalid)
	r.tags[i] = 0
}

// matches reports the first difference between an array and its
// reference: a way's validity, block (read back through AddrOf) or
// payload, the recency order of two valid ways of one set, or a Fill
// at the array's bound that does not panic.
func (r *refArray[P]) matches(c *Array[P]) error {
	for i, w := range c.words {
		if valid := w > c.rankMask; valid != (r.tags[i] != 0) {
			return fmt.Errorf("way %d: word %#x, reference block+1 %#x", i, w, r.tags[i])
		} else if valid && c.AddrOf(&c.lines[i]) != r.tags[i]-1 {
			return fmt.Errorf("way %d: AddrOf %#x, reference %#x", i, c.AddrOf(&c.lines[i]), r.tags[i]-1)
		}
		if c.lines[i] != r.lines[i] {
			return fmt.Errorf("way %d: payload %+v, reference %+v", i, c.lines[i], r.lines[i])
		}
	}
	m := c.rankMask
	for base := 0; base < len(c.words); base += c.ways {
		for i := base; i < base+c.ways; i++ {
			for j := base; j < base+c.ways; j++ {
				if r.tags[i] == 0 || r.tags[j] == 0 {
					continue
				}
				if c.words[i]&m < c.words[j]&m != (r.lru[i] < r.lru[j]) {
					return fmt.Errorf("ways %d and %d: ranks %d, %d; reference stamps %d, %d", i, j,
						c.words[i]&m, c.words[j]&m, r.lru[i], r.lru[j])
				}
			}
		}
	}
	if msg := fillPanic(c, c.bound); !strings.Contains(msg, "bound") {
		return fmt.Errorf("Fill at the bound %#x: panic %q", uint64(c.bound), msg)
	}
	return nil
}

// fillPanic returns what Fill(a) into a's probed way panics with.
func fillPanic[P any](c *Array[P], a Addr) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	l, _, _ := c.Probe(a)
	c.Fill(l, a, 1)
	return ""
}

// histGeom is one array geometry of the differential histories: few
// sets and ways, so conflicts and evictions come every few operations.
// The first skips address bit 0 in its set index, as the banked L2
// does; the second has the directory cache's non-power-of-two way
// count; the third skips a 64-tile chip's six bank bits.
type histGeom struct {
	sets, ways int
	shift      uint
}

var histGeoms = []histGeom{{4, 4, 1}, {2, 9, 1}, {4, 2, 6}}

// histAddr decodes a history byte into one of 48 blocks of an array:
// 24 near zero, with bits both below and above the set-index field,
// and 24 just below the array's bound, so the top tag bits are
// exercised too.
func histAddr(b byte, shift uint, bound Addr) Addr {
	v := Addr(b % 24)
	a := v%3 | v/3<<shift
	if b&0x80 != 0 {
		return (bound - 1) ^ a
	}
	return a
}

// checkArray runs the history encoded in ops (two bytes per step: an
// operation and its argument) on a fresh array of geometry g and on the
// reference, comparing every result and, after every step, the whole
// state.
func checkArray[P comparable](tb testing.TB, name string, g histGeom, ops []byte,
	build func(string, int, int) *Array[P], reset func(*P, State), mutate func(*P, byte)) {
	c := build(name, g.sets, g.ways)
	c.SetIndexShift(g.shift)
	r := newRef(g.sets, g.ways, g.shift, reset)
	for s := 0; s+1 < len(ops); s += 2 {
		op, arg := ops[s]%6, ops[s+1]
		a := histAddr(arg, g.shift, c.bound)
		fail := func(format string, args ...any) {
			tb.Helper()
			tb.Fatalf("%s %+v step %d (op %d, block %#x): %s", name, g, s/2, op, a, fmt.Sprintf(format, args...))
		}
		switch op {
		case 0, 1: // Lookup, Peek
			var l *P
			if op == 0 {
				l = c.Lookup(a)
			} else {
				l = c.Peek(a)
			}
			i := r.find(a)
			if (l != nil) != (i >= 0) || l != nil && c.indexOf(l) != i {
				fail("found %v, reference way %d", l != nil, i)
			}
			if op == 0 && i >= 0 {
				r.touch(i)
			}
		case 2, 3: // Probe, then Touch or Fill; step 3 also writes the payload
			l, hit, valid := c.Probe(a)
			i, rhit, rvalid := r.probe(a)
			if c.indexOf(l) != i || hit != rhit || valid != rvalid {
				fail("way %d hit %v valid %v, reference way %d hit %v valid %v",
					c.indexOf(l), hit, valid, i, rhit, rvalid)
			}
			if valid && !hit && c.AddrOf(l) != r.tags[i]-1 {
				fail("victim %#x, reference %#x", c.AddrOf(l), r.tags[i]-1)
			}
			if hit {
				c.Touch(l)
				r.touch(i)
			} else {
				st := State(arg%3 + 1)
				c.Fill(l, a, st)
				r.fill(i, a, st)
			}
			if op == 3 {
				mutate(l, arg)
				mutate(&r.lines[i], arg)
			}
		case 4: // Invalidate
			old, ok := c.Invalidate(a)
			i := r.find(a)
			if ok != (i >= 0) || ok && old != r.lines[i] {
				fail("removed %v %+v, reference way %d", ok, old, i)
			}
			if i >= 0 {
				r.invalidate(i)
			}
		case 5: // InvalidateLine on a present block
			i := r.find(a)
			if i < 0 {
				continue
			}
			want := r.lines[i]
			old, got := c.InvalidateLine(&c.lines[i])
			if got != a || old != want {
				fail("InvalidateLine = %+v at %#x, want %+v", old, got, want)
			}
			r.invalidate(i)
		}
		if err := r.matches(c); err != nil {
			fail("%v", err)
		}
	}
}

// checkPointerCache runs the history in ops through the PointerCache
// API and through the reference, whose Update is a single scan for the
// block, the first empty way and the least recently used valid way.
func checkPointerCache(tb testing.TB, g histGeom, ops []byte) {
	p := NewPointerCache("ptr", g.sets, g.ways)
	p.SetIndexShift(g.shift)
	r := newRef(g.sets, g.ways, g.shift, resetPtr)
	for s := 0; s+1 < len(ops); s += 2 {
		op, arg := ops[s]%4, ops[s+1]
		a := histAddr(arg, g.shift, p.arr.bound)
		fail := func(format string, args ...any) {
			tb.Helper()
			tb.Fatalf("pointer %+v step %d (op %d, block %#x): %s", g, s/2, op, a, fmt.Sprintf(format, args...))
		}
		i := r.find(a)
		switch op {
		case 0, 1: // Lookup, Peek
			var ptr int16
			var ok bool
			if op == 0 {
				ptr, ok = p.Lookup(a)
			} else {
				ptr, ok = p.Peek(a)
			}
			if ok != (i >= 0) || ok && ptr != r.lines[i] {
				fail("= %d, %v; reference way %d", ptr, ok, i)
			}
			if op == 0 && ok {
				r.touch(i)
			}
		case 2: // Update
			ptr := int16(arg)
			ev, evPtr, disp := p.Update(a, ptr)
			var rev Addr
			var revPtr int16
			var rdisp bool
			if i < 0 {
				var valid bool
				i, _, valid = r.probe(a)
				if valid {
					rev, revPtr, rdisp = r.tags[i]-1, r.lines[i], true
				}
				r.tags[i] = a + 1
			}
			r.lines[i] = ptr
			r.touch(i)
			if ev != rev || evPtr != revPtr || disp != rdisp {
				fail("Update displaced %#x/%d (%v), reference %#x/%d (%v)", ev, evPtr, disp, rev, revPtr, rdisp)
			}
		case 3: // Invalidate
			if ok := p.Invalidate(a); ok != (i >= 0) {
				fail("Invalidate = %v, reference way %d", ok, i)
			}
			if i >= 0 {
				r.invalidate(i)
			}
		}
		if got, want := p.CountValid(), r.countValid(); got != want {
			fail("CountValid = %d, reference %d", got, want)
		}
		if err := r.matches(&p.arr); err != nil {
			fail("%v", err)
		}
	}
}

func (r *refArray[P]) countValid() int {
	n := 0
	for _, t := range r.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// checkAllPayloads runs one history on every payload instantiation in
// every history geometry.
func checkAllPayloads(tb testing.TB, ops []byte) {
	for _, g := range histGeoms {
		checkArray(tb, "line", g, ops, New, resetLine, func(l *Line, b byte) {
			l.Sharers |= 1 << (b % 64)
			l.Owner = int16(b)
			l.ProPos[b%MaxSimAreas] = int8(b % 16)
			l.Dirty = b&1 != 0
		})
		checkArray(tb, "bare", g, ops, NewBare, resetBare, func(l *BareLine, b byte) { l.Dirty = b&1 != 0 })
		checkArray(tb, "dir", g, ops, NewDir, resetDir, func(l *DirLine, b byte) {
			l.Sharers |= 1 << (b % 64)
			l.Owner = int16(b % 64)
		})
		checkArray(tb, "int16", g, ops, func(name string, sets, ways int) *Array[int16] {
			return newArray(name, sets, ways, resetPtr)
		}, resetPtr, func(p *int16, b byte) { *p = int16(b) })
		checkPointerCache(tb, g, ops)
	}
}

// TestArrayMatchesReference is the differential test of the packed way
// word: seeded random histories on every payload instantiation and
// history geometry against the reference model with full blocks and
// unbounded stamps.
func TestArrayMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 6000)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		checkAllPayloads(t, ops)
	}
}

// FuzzArrayMatchesReference explores histories beyond the seeded ones
// (go test -fuzz FuzzArrayMatchesReference).
func FuzzArrayMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 2, 2, 2, 4, 2, 6, 2, 8, 4, 0, 2, 10, 0, 2, 2, 12})
	f.Add([]byte{3, 0, 2, 0x80, 2, 0x82, 3, 0x84, 2, 0x86, 2, 0x88, 4, 0x82, 5, 0x84, 2, 0x8a})
	f.Fuzz(func(t *testing.T, ops []byte) { checkAllPayloads(t, ops) })
}

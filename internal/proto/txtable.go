package proto

import (
	"repro/internal/cache"
	"repro/internal/sim"
)

// This file implements the pooled per-block transaction table that
// replaces the per-tile hash maps (pendingL1/pendingHome/homeBusy/
// blocked) and the per-engine recalls/ownerStamp maps. One txRecord
// holds every piece of transient per-block state a tile tracks, so a
// miss transaction touches one cache line instead of hashing the
// address into up to six maps, and stalled continuations chain through
// pooled intrusive waiter nodes instead of freshly allocated []func()
// slices. Records and waiters recycle through free lists; steady-state
// operation allocates nothing.

// waiter is one stalled continuation. fn/arg use the kernel's
// non-capturing form so waking a waiter is a zero-allocation
// AfterArg; plain func() continuations are adapted through
// runClosure (a func value boxes into any without allocating).
type waiter struct {
	fn   func(any)
	arg  any
	next *waiter
}

// runClosure adapts a plain func() continuation to the AtArg shape.
func runClosure(a any) { a.(func())() }

// Per-block transient flags.
const (
	txHomeBusy uint8 = 1 << iota // home bank serialized on this block
	txBlocked                    // Arin broadcast invalidation in progress
	txRecall                     // ownership recall in flight (DiCo family)
)

// txRecord is the transient coherence state one tile tracks for one
// block: serialization flags and the FIFO waiter lists of stalled L1
// requests and stalled home requests. Ownership stamps live in the
// separate stampTable: they persist for the whole run, and keeping
// them here used to pin records forever, growing the bucket chains
// that the hot homeBusy/wake probes walk on every message.
type txRecord struct {
	addr  cache.Addr
	next  *txRecord // bucket chain / free-list link
	flags uint8

	l1Head, l1Tail     *waiter
	homeHead, homeTail *waiter
}

// idle reports whether the record carries no state and may be pooled.
// With stamps externalized, every record is transient: the table drains
// to empty whenever the tile has no transaction in flight, so the
// common-case probe of a quiet block hits an empty bucket.
func (r *txRecord) idle() bool {
	return r.flags == 0 && r.l1Head == nil && r.homeHead == nil
}

// txTable is an address-indexed table of txRecords with chained
// buckets, a multiplicative hash, and free lists for records and
// waiters. It grows (rehashes) when the load factor passes 4 so
// lookups stay O(1) even though stamped records persist.
type txTable struct {
	buckets  []*txRecord
	shift    uint // 64 - log2(len(buckets))
	count    int
	freeRec  *txRecord
	freeWait *waiter
}

const txInitialBuckets = 64

func newTxTable() txTable {
	return txTable{
		buckets: make([]*txRecord, txInitialBuckets),
		shift:   64 - log2(txInitialBuckets),
	}
}

func log2(n int) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// bucketOf hashes with the 64-bit golden ratio and keeps the upper
// bits, which a multiplicative hash mixes best.
func (t *txTable) bucketOf(a cache.Addr) int {
	return int((uint64(a) * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the record for a, or nil.
func (t *txTable) get(a cache.Addr) *txRecord {
	for r := t.buckets[t.bucketOf(a)]; r != nil; r = r.next {
		if r.addr == a {
			return r
		}
	}
	return nil
}

// ensure returns the record for a, creating it from the pool if absent.
func (t *txTable) ensure(a cache.Addr) *txRecord {
	b := t.bucketOf(a)
	for r := t.buckets[b]; r != nil; r = r.next {
		if r.addr == a {
			return r
		}
	}
	r := t.freeRec
	if r != nil {
		t.freeRec = r.next
		r.next = nil
	} else {
		r = &txRecord{}
	}
	r.addr = a
	r.next = t.buckets[b]
	t.buckets[b] = r
	t.count++
	if t.count > 4*len(t.buckets) {
		t.grow()
	}
	return r
}

// maybeRelease unlinks and pools r if it no longer carries state.
func (t *txTable) maybeRelease(r *txRecord) {
	if !r.idle() {
		return
	}
	b := t.bucketOf(r.addr)
	for pp := &t.buckets[b]; *pp != nil; pp = &(*pp).next {
		if *pp == r {
			*pp = r.next
			r.next = t.freeRec
			t.freeRec = r
			t.count--
			return
		}
	}
	panic("proto: txRecord not in its bucket")
}

// grow doubles the bucket array and redistributes the chains.
func (t *txTable) grow() {
	old := t.buckets
	t.buckets = make([]*txRecord, 2*len(old))
	t.shift--
	for _, r := range old {
		for r != nil {
			next := r.next
			b := t.bucketOf(r.addr)
			r.next = t.buckets[b]
			t.buckets[b] = r
			r = next
		}
	}
}

// forEach visits every live record (table order; debug dumps only —
// simulation behaviour must never depend on it).
func (t *txTable) forEach(fn func(*txRecord)) {
	for _, r := range t.buckets {
		for ; r != nil; r = r.next {
			fn(r)
		}
	}
}

// getWaiter pops a pooled waiter node.
func (t *txTable) getWaiter(fn func(any), arg any) *waiter {
	w := t.freeWait
	if w != nil {
		t.freeWait = w.next
	} else {
		w = &waiter{}
	}
	w.fn = fn
	w.arg = arg
	w.next = nil
	return w
}

// putWaiter recycles a waiter node. The kernel copies fn/arg at
// scheduling time, so nodes recycle the moment their wake is enqueued.
func (t *txTable) putWaiter(w *waiter) {
	w.fn = nil
	w.arg = nil
	w.next = t.freeWait
	t.freeWait = w
}

// stampEmpty marks an unused stamp-table slot. Block addresses are
// below cache.MaxAddr (2^37), so the all-ones value can never collide
// with a real block.
const stampEmpty = ^cache.Addr(0)

// stampTable records the last ownership-update stamp the home has
// applied per block — the stale-update guard. Entries are written for
// the lifetime of the run and never deleted (exactly like the
// ownerStamp maps it descends from), so the table is open-addressed
// with linear probing over two flat arrays: no per-entry allocation,
// no pointer chasing, and a probe of an absent block costs one load in
// the common case. Grown at 50% load so probe chains stay short.
type stampTable struct {
	addrs  []cache.Addr
	stamps []sim.Time
	count  int
	shift  uint // 64 - log2(len(addrs))
}

const stampInitialSlots = 256

func newStampTable() stampTable {
	t := stampTable{
		addrs:  make([]cache.Addr, stampInitialSlots),
		stamps: make([]sim.Time, stampInitialSlots),
		shift:  64 - log2(stampInitialSlots),
	}
	for i := range t.addrs {
		t.addrs[i] = stampEmpty
	}
	return t
}

func (t *stampTable) slotOf(a cache.Addr) int {
	return int((uint64(a) * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the stamp recorded for a, if any.
func (t *stampTable) get(a cache.Addr) (sim.Time, bool) {
	mask := len(t.addrs) - 1
	for i := t.slotOf(a); ; i = (i + 1) & mask {
		switch t.addrs[i] {
		case a:
			return t.stamps[i], true
		case stampEmpty:
			return 0, false
		}
	}
}

// set records the stamp for a, inserting the entry if absent.
func (t *stampTable) set(a cache.Addr, s sim.Time) {
	mask := len(t.addrs) - 1
	i := t.slotOf(a)
	for t.addrs[i] != a && t.addrs[i] != stampEmpty {
		i = (i + 1) & mask
	}
	if t.addrs[i] == stampEmpty {
		t.addrs[i] = a
		t.stamps[i] = s
		t.count++
		if 2*t.count > len(t.addrs) {
			t.grow()
		}
		return
	}
	t.stamps[i] = s
}

// grow doubles the arrays and rehashes every live entry.
func (t *stampTable) grow() {
	oldAddrs, oldStamps := t.addrs, t.stamps
	n := 2 * len(oldAddrs)
	t.addrs = make([]cache.Addr, n)
	t.stamps = make([]sim.Time, n)
	t.shift--
	for i := range t.addrs {
		t.addrs[i] = stampEmpty
	}
	mask := n - 1
	for i, a := range oldAddrs {
		if a == stampEmpty {
			continue
		}
		j := t.slotOf(a)
		for t.addrs[j] != stampEmpty {
			j = (j + 1) & mask
		}
		t.addrs[j] = a
		t.stamps[j] = oldStamps[i]
	}
}

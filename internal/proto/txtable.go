package proto

import (
	"fmt"

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

// waiter is one stalled continuation: a bound handler and its pooled
// *message, so waking a waiter is a zero-allocation AfterArg.
type waiter struct {
	fn   func(any)
	arg  any
	next *waiter
}

// Per-block transient flags.
const (
	txHomeBusy uint8 = 1 << iota // home bank serialized on this block
	txBlocked                    // Arin broadcast invalidation in progress
	txRecall                     // ownership recall in flight (DiCo family)
)

// txRecord is the transient coherence state one tile tracks for one
// block: serialization flags and the FIFO waiter lists of stalled L1
// requests and stalled home requests. Ownership stamps live in the
// separate stampTable: an entry outlives the transaction that wrote it
// by up to one mesh latency horizon, and keeping stamps here used to
// pin records forever, growing the bucket chains that the hot
// homeBusy/wake probes walk on every message.
type txRecord struct {
	addr  cache.Addr
	next  *txRecord // bucket chain / free-list link
	flags uint8
	round round // the block's eviction round, at its home

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
// lookups stay O(1) however many transactions are in flight.
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

// records lists every live record (table order; debug dumps only —
// simulation behaviour must never depend on it).
func (t *txTable) records() []*txRecord {
	var rs []*txRecord
	for _, r := range t.buckets {
		for ; r != nil; r = r.next {
			rs = append(rs, r)
		}
	}
	return rs
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

// stampSlot is one stamp-table entry: a block and the stamp of the
// newest ownership update its home has applied.
type stampSlot struct {
	addr  cache.Addr
	stamp sim.Time
}

// stampTable records the last ownership-update stamp the home has
// applied per block — the stale-update guard. It is open-addressed with
// linear probing over one flat array: no per-entry allocation, and a
// probe of an absent block costs one load in the common case.
//
// Entries expire. Every stamped update is one mesh unicast, stamped
// with its send time and checked on arrival, so when no update in
// flight is older than floor (now minus the mesh's longest latency so
// far) an entry stamped below floor can never reject one: it behaves
// exactly like no entry. At its load limit (half full) the table
// rebuilds: it drops every entry below the caller's floor, keeps the
// rest with their stamps, and doubles only if it is still more than a
// quarter full. Its size is therefore set by the blocks updated within
// one latency horizon, not by run length. purged keeps the highest
// floor a rebuild used; an update stamped below it breaks the premise
// and panics (update).
type stampTable struct {
	slots  []stampSlot
	count  int
	shift  uint // 64 - log2(len(slots))
	purged sim.Time
	keep   []stampSlot // rebuild scratch
}

const stampInitialSlots = 16

func newStampTable() stampTable {
	t := stampTable{}
	t.reset(stampInitialSlots)
	return t
}

// reset empties the table at n slots, reusing the array when it
// already has that size.
func (t *stampTable) reset(n int) {
	if len(t.slots) != n {
		t.slots = make([]stampSlot, n)
		t.shift = 64 - log2(n)
	}
	for i := range t.slots {
		t.slots[i] = stampSlot{addr: stampEmpty}
	}
	t.count = 0
}

func (t *stampTable) slotOf(a cache.Addr) int {
	return int((uint64(a) * 0x9E3779B97F4A7C15) >> t.shift)
}

// update applies stamp s to a in one probe: it returns applied = false,
// leaving the entry alone, when a's stored stamp is newer than s, and
// otherwise stores s. full reports that the insert reached the load
// limit; the caller then rebuilds with a fresh floor.
func (t *stampTable) update(a cache.Addr, s sim.Time) (applied, full bool) {
	if s < t.purged {
		panic(fmt.Sprintf("proto: ownership update for block %#x stamped %d, below stamp floor %d the home already purged at",
			uint64(a), s, t.purged))
	}
	mask := len(t.slots) - 1
	for i := t.slotOf(a); ; i = (i + 1) & mask {
		e := &t.slots[i]
		switch e.addr {
		case a:
			if e.stamp > s {
				return false, false
			}
			e.stamp = s
			return true, false
		case stampEmpty:
			*e = stampSlot{addr: a, stamp: s}
			t.count++
			return true, 2*t.count > len(t.slots)
		}
	}
}

// rebuild drops every entry stamped below floor and rehashes the rest,
// doubling the table if they still fill more than a quarter of it.
func (t *stampTable) rebuild(floor sim.Time) {
	t.purged = max(t.purged, floor)
	t.keep = t.keep[:0]
	for _, e := range t.slots {
		if e.addr != stampEmpty && e.stamp >= floor {
			t.keep = append(t.keep, e)
		}
	}
	n := len(t.slots)
	if 4*len(t.keep) > n {
		n *= 2
	}
	t.reset(n)
	mask := n - 1
	for _, e := range t.keep {
		i := t.slotOf(e.addr)
		for t.slots[i].addr != stampEmpty {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
	t.count = len(t.keep)
}

package proto

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// TestTxTableGrow fills a transaction table past several load-factor
// doublings, which no figure run or engine test reaches, and requires
// every record to stay findable in its rehashed bucket and to release
// back to an empty table.
func TestTxTableGrow(t *testing.T) {
	tab := newTxTable()
	const n = 5 * 4 * txInitialBuckets // past 4 x buckets twice over
	addr := func(i int) cache.Addr { return cache.Addr(i*7919 + 3) }
	recs := make([]*txRecord, n)
	for i := range recs {
		recs[i] = tab.ensure(addr(i))
		recs[i].flags = txHomeBusy // not idle, so it stays in the table
	}
	if len(tab.buckets) <= txInitialBuckets {
		t.Fatalf("table holds %d records in %d buckets; it never grew", tab.count, len(tab.buckets))
	}
	if tab.count != n {
		t.Fatalf("count %d after %d inserts", tab.count, n)
	}
	// Growth must spread the chains over the new buckets, not just
	// allocate them: at load factor <= 4 no chain should come near 16.
	for b, r := range tab.buckets {
		chain := 0
		for ; r != nil; r = r.next {
			chain++
		}
		if chain > 16 {
			t.Fatalf("bucket %d chains %d records after growth to %d buckets", b, chain, len(tab.buckets))
		}
	}
	for i, r := range recs {
		if got := tab.get(addr(i)); got != r {
			t.Fatalf("record %d (addr %d) lost after growth: got %p, want %p", i, addr(i), got, r)
		}
		if got := tab.ensure(addr(i)); got != r {
			t.Fatalf("ensure(%d) made a second record after growth", addr(i))
		}
	}
	for _, r := range recs {
		r.flags = 0
		tab.maybeRelease(r) // panics if growth left r outside its bucket
	}
	if tab.count != 0 {
		t.Errorf("count %d after releasing every record, want 0", tab.count)
	}
	for i := range recs {
		if tab.get(addr(i)) != nil {
			t.Fatalf("addr %d still present after release", addr(i))
		}
	}
	if r := tab.ensure(addr(0)); r != recs[n-1] {
		t.Error("ensure after release allocated instead of reusing the pooled record")
	}
}

// get returns the stamp t holds for a, if any.
func (t *stampTable) get(a cache.Addr) (sim.Time, bool) {
	mask := len(t.slots) - 1
	for i := t.slotOf(a); ; i = (i + 1) & mask {
		switch t.slots[i].addr {
		case a:
			return t.slots[i].stamp, true
		case stampEmpty:
			return 0, false
		}
	}
}

// TestStampTableBoundedByFloor stamps far more distinct blocks than the
// table has slots, rebuilding at every load limit with a floor one
// latency horizon behind the clock, as stampIfNewer does. The table
// must stay bounded by the blocks stamped within the horizon, every
// entry at or above the floor must survive each rebuild with its stamp
// and every entry below it must go, a stale update must still lose to
// a live entry, and an update stamped below a purged floor must panic.
func TestStampTableBoundedByFloor(t *testing.T) {
	const horizon, blocks = 40, 20000
	tab := newStampTable()
	ref := map[cache.Addr]sim.Time{} // every stamp applied, pruned at each rebuild
	addr := func(i int) cache.Addr { return cache.Addr(i*7919 + 3) }
	rebuilds, maxSlots := 0, 0
	apply := func(a cache.Addr, s, now sim.Time) bool {
		applied, full := tab.update(a, s)
		if applied {
			ref[a] = s
		}
		if !full {
			return applied
		}
		floor := now - horizon
		tab.rebuild(floor)
		rebuilds++
		maxSlots = max(maxSlots, len(tab.slots))
		for b, st := range ref {
			got, ok := tab.get(b)
			switch {
			case st >= floor && (!ok || got != st):
				t.Fatalf("rebuild at floor %d lost block %#x: got (%d, %v), want stamp %d", floor, b, got, ok, st)
			case st < floor && ok:
				t.Fatalf("rebuild at floor %d kept block %#x stamped %d", floor, b, st)
			case st < floor:
				delete(ref, b)
			}
		}
		if tab.count != len(ref) {
			t.Fatalf("count %d after rebuild, %d live blocks", tab.count, len(ref))
		}
		return applied
	}
	for i := 0; i < blocks; i++ {
		now := sim.Time(horizon + i)
		if !apply(addr(i), now, now) {
			t.Fatalf("fresh stamp for block %d not applied", i)
		}
		if i >= 8 && i%5 == 0 {
			// A reordered update still in flight: sent before block
			// i-8's current stamp, so it must be dropped.
			if apply(addr(i-8), now-9, now) {
				t.Fatalf("stale update for block %d applied over stamp %d", i-8, now-8)
			}
			if got, _ := tab.get(addr(i - 8)); got != now-8 {
				t.Fatalf("stale update for block %d moved its stamp to %d", i-8, got)
			}
		}
	}
	// A table of at most maxSlots slots reaches its load limit within
	// maxSlots/2 new blocks, so it rebuilt at least this often.
	if rebuilds < blocks/maxSlots {
		t.Fatalf("only %d rebuilds over %d blocks at up to %d slots", rebuilds, blocks, maxSlots)
	}
	// Blocks stamped within one horizon: at most horizon+1 survive a
	// rebuild, and the table doubles only past a quarter full.
	if limit := 4 * 2 * (horizon + 1); maxSlots > limit {
		t.Errorf("table reached %d slots for a %d-cycle horizon, limit %d", maxSlots, horizon, limit)
	}

	floor := tab.purged
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{fmt.Sprintf("%#x", uint64(addr(7))), fmt.Sprint(floor - 1), fmt.Sprint(floor)} {
			if !strings.Contains(msg, want) {
				t.Errorf("update below the purged floor: panic %q does not name %s", msg, want)
			}
		}
	}()
	tab.update(addr(7), floor-1)
	t.Error("an update stamped below the purged floor did not panic")
}

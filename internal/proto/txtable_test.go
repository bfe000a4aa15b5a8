package proto

import (
	"testing"

	"repro/internal/cache"
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

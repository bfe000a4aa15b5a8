package check

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/cache"
)

// TestMinimize shrinks a failing stress stream to a minimal reproducer
// and prints it as a check.Ref literal, ready to paste into a
// regression test. Scratch tool for bug hunts: run with
// MINIMIZE=<seed> (and optionally DBG_PROTO=<protocol>) against the
// unfixed protocol; skipped otherwise. Stream shape per seed matches
// TestStress in internal/proto.
func TestMinimize(t *testing.T) {
	s := os.Getenv("MINIMIZE")
	if s == "" {
		t.Skip("set MINIMIZE=<seed> to run")
	}
	seed, _ := strconv.Atoi(s)
	p := os.Getenv("DBG_PROTO")
	if p == "" {
		p = "directory"
	}
	fails := func(recs []Ref) bool {
		_, err := RunRecord(p, recs, 16, 4, uint64(seed), false)
		return err != nil
	}
	blocks := []int{1, 2, 4, 8, 16, 48}[seed%6]
	writePct := []int{40, 60, 75}[seed%3]
	recs := ConflictStream(uint64(seed), 16, blocks, 700, writePct)
	if !fails(recs) {
		t.Fatalf("seed %d does not fail on %s; nothing to minimize", seed, p)
	}
	// Per-block projection first: a single-block failure is the
	// simplest possible shape (issuing tiles and gaps kept).
	for b := 0; b < blocks; b++ {
		var only []Ref
		for _, r := range recs {
			if r.Addr == cache.Addr(b) {
				only = append(only, r)
			}
		}
		if fails(only) {
			recs = only
			t.Logf("block %#x only: %d records, still fails", b, len(recs))
			break
		}
	}
	// Shortest failing prefix (binary search on the boundary).
	lo, hi := 1, len(recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if fails(recs[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	recs = recs[:lo]
	t.Logf("prefix: %d records", len(recs))
	// Greedy single-record removal until a fixed point.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(recs); i++ {
			cand := append(append([]Ref{}, recs[:i]...), recs[i+1:]...)
			if fails(cand) {
				recs = cand
				changed = true
				i--
			}
		}
	}
	t.Logf("minimal: %d records", len(recs))
	for _, r := range recs {
		fmt.Printf("{Tile: %d, Addr: %#x, Write: %v, Gap: %d},\n", r.Tile, r.Addr, r.Write, r.Gap)
	}
}
